"""Sumset size inequalities and periodicity witnesses.

The central quantity is the stabilizer K = Sym(A+B) of a sumset: the
subgroup of translations fixing it.  kneser_check asserts the lower bound
|A+B| >= |A+K| + |B+K| - |K| on concrete pairs; find_stabilizer_witness
builds, for disjointness data (A, B, C) of large total mass, a subgroup K
with |A+K| + |B+K| = |G| such that C fits inside one K-coset.  The
construction follows the underlying argument instead of searching: for
nonempty A and B the sumset's own stabilizer works, and if exactly one of
them is empty the whole group does.

The arithmetic runs on raw bitsets.  _bound_bits computes the four sizes
of the bound and its verdict from two member bitsets, and kneser_check
only formats them.  Two sumsets of the bound are known without being
computed whenever K is trivial or whole: X + {0} = X, so K = {0} gives
|A+K| = |A| and |B+K| = |B|; and if A+B = G then K = G, and X + G = G for
every nonempty X, so all four sizes are |G|.  Only a proper nontrivial K
costs the two sumsets A+K and B+K.  find_stabilizer_witness computes
them always: they are its witness check.  The witness builder works on
the bits of its arguments.  The samplers draw bitsets through
space.randbelow and space.sample_bits, and the public samplers wrap
those same draws in TernarySets only to return them.  So the suite's
many samples build no TernarySet unless a check fails: a TernarySet is
made only where the public API returns one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import canon, subspaces
from . import space as _sp
from .core import TernarySet, difference_set, sumset, sym_group_bits
from .statements import CheckResult
from .space import iter_bits, randbelow, sample_bits
from .subspaces import AffineSubspace


class HypothesisError(ValueError):
    """A stated precondition fails; .code names which one."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


@dataclass(frozen=True)
class StabilizerWitness:
    """A subgroup splitting the group mass over A and B, plus C's coset."""

    k: AffineSubspace
    coset_of_c: AffineSubspace

    def to_json(self) -> dict:
        return {"K": self.k.to_json(), "coset_of_C": self.coset_of_c.to_json()}


def _require_same_dim(a: TernarySet, b: TernarySet) -> int:
    if a.dim != b.dim:
        raise ValueError("sets live in different ambient spaces")
    return a.dim


def _bound_bits(a: int, b: int, n: int) -> tuple[int, int, int, int, bool]:
    """(|A+B|, |A+K|, |B+K|, |K|, bound holds) for nonempty bitsets a, b
    and K = Sym(A+B)."""
    sp = _sp.space(n)
    s = sp.sumset_bits(a, b)
    if s == sp.full_bits:  # K = G, and A + G = B + G = G
        return sp.size, sp.size, sp.size, sp.size, True
    k = sym_group_bits(s, n)
    s_size, k_size = s.bit_count(), k.bit_count()
    if k_size == 1:  # K = {0}
        a_plus_k, b_plus_k = a.bit_count(), b.bit_count()
    else:
        a_plus_k = sp.sumset_bits(a, k).bit_count()
        b_plus_k = sp.sumset_bits(b, k).bit_count()
    return s_size, a_plus_k, b_plus_k, k_size, s_size >= a_plus_k + b_plus_k - k_size


def kneser_check(a: TernarySet, b: TernarySet) -> CheckResult:
    """Assert |A+B| >= |A+K| + |B+K| - |K| for K = Sym(A+B).

    Equality occurrences are recorded in the result but nothing is claimed
    about them.
    """
    name = "kneser"
    n = _require_same_dim(a, b)
    if a.size == 0 or b.size == 0:
        raise ValueError("the sumset stabilizer of an empty sumset is undefined")
    s, a_plus_k, b_plus_k, k, holds = _bound_bits(a.bits, b.bits, n)
    quantities = {
        "sumset": s,
        "a_plus_k": a_plus_k,
        "b_plus_k": b_plus_k,
        "k": k,
        "equality": s == a_plus_k + b_plus_k - k,
    }
    if holds:
        detail = f"{s} >= {a_plus_k} + {b_plus_k} - {k}"
        if quantities["equality"]:
            detail += " (equality)"
        return CheckResult.holds(name, detail, witness=quantities)
    return CheckResult.counterexample(
        name,
        f"{s} < {a_plus_k} + {b_plus_k} - {k}",
        witness={"A": a.indices(), "B": b.indices(), **quantities},
    )


def full_sumset_check(a: TernarySet, b: TernarySet) -> CheckResult:
    """Assert A+B covers everything once |A| + |B| exceeds the group size."""
    name = "full_sumset"
    n = _require_same_dim(a, b)
    if a.size + b.size <= 3**n:
        return CheckResult.not_applicable(
            name, f"|A| + |B| = {a.size + b.size} does not exceed {3**n}"
        )
    s = sumset(a, b)
    if s.size == 3**n:
        return CheckResult.holds(name, "A+B is the whole space")
    missing = [i for i in range(3**n) if not s.bits >> i & 1]
    return CheckResult.counterexample(
        name,
        f"A+B misses {len(missing)} elements",
        witness={"A": a.indices(), "B": b.indices(), "missing": missing[:10]},
    )


def difference_cover_check(a: TernarySet) -> CheckResult:
    """Assert A-A covers everything once |A| exceeds a third of the space."""
    name = "difference_cover"
    n = a.dim
    if 3 * a.size <= 3**n:
        return CheckResult.not_applicable(
            name, f"|A| = {a.size} is not above a third of {3**n}"
        )
    d = difference_set(a, a)
    if d.size == 3**n:
        return CheckResult.holds(name, "A-A is the whole space")
    missing = [i for i in range(3**n) if not d.bits >> i & 1]
    return CheckResult.counterexample(
        name,
        f"A-A misses {len(missing)} elements",
        witness={"A": a.indices(), "missing": missing[:10]},
    )


def find_stabilizer_witness(
    a: TernarySet, b: TernarySet, c: TernarySet
) -> StabilizerWitness:
    """Construct and verify the mass-splitting subgroup for (A, B, C).

    Preconditions, each with its own error code: C nonempty ("empty-C"),
    C disjoint from A+B ("sumset-meets-C"), and 2|A| + 2|B| + |C| beyond
    twice the group size ("mass-too-small").  The witness invariants are
    re-checked before returning; their failure would be a bug, not bad
    input, and raises RuntimeError.
    """
    n = _require_same_dim(a, b)
    if c.dim != n:
        raise ValueError("sets live in different ambient spaces")
    sp = _sp.space(n)
    a, b, c = a.bits, b.bits, c.bits
    if not c:
        raise HypothesisError("empty-C", "C must be nonempty")
    s = sp.sumset_bits(a, b) if a and b else 0
    if s & c:
        raise HypothesisError("sumset-meets-C", "C intersects A+B")
    mass = 2 * a.bit_count() + 2 * b.bit_count() + c.bit_count()
    if mass <= 2 * sp.size:
        raise HypothesisError(
            "mass-too-small", f"2|A| + 2|B| + |C| = {mass} must exceed {2 * sp.size}"
        )
    if a and b:
        k = subspaces.subspace_from_member_bits(sym_group_bits(s, n), n)
    else:
        # mass forces the other side nonempty, and the whole group works
        k = subspaces.full_space(n)
    coset = k.translate((c & -c).bit_length() - 1)

    a_plus_k = sp.sumset_bits(a, k.members_bits).bit_count() if a else 0
    b_plus_k = sp.sumset_bits(b, k.members_bits).bit_count() if b else 0
    if a_plus_k + b_plus_k != sp.size:
        raise RuntimeError(
            f"witness invariant broken: |A+K| + |B+K| = {a_plus_k} + {b_plus_k}"
        )
    if c & ~coset.members_bits:
        raise RuntimeError("witness invariant broken: C escapes its coset")
    return StabilizerWitness(k, coset)


def sample_kneser_pair(rng: random.Random, n: int) -> tuple[TernarySet, TernarySet]:
    """A seeded nonempty pair, biased toward periodic structure so the
    stabilizer is frequently nontrivial.  A dimension outside
    0..MAX_DIM raises ValueError before any draw."""
    a, b = _pair_bits(rng, n)
    return TernarySet(n, a), TernarySet(n, b)


def _pair_bits(rng: random.Random, n: int) -> tuple[int, int]:
    """The bitsets of sample_kneser_pair, from the same draws."""
    sp = _sp.space(n)
    a = _sample_bits(rng, sp)  # A is drawn first
    b = _sample_bits(rng, sp)
    return a, b


def _sample_bits(rng: random.Random, sp: _sp.Space) -> int:
    size = sp.size
    if rng.random() < 1 / 3:
        k = randbelow(rng, sp.n + 1)
        v = sp.span_bits(canon.random_basis(sp.n, rng)[:k])
        bits = 0
        for _ in range(1 + randbelow(rng, 3)):
            bits |= sp.translate_bits(v, randbelow(rng, size))
        for _ in range(randbelow(rng, 3)):
            bits |= 1 << randbelow(rng, size)
        return bits
    return sample_bits(rng, range(size), 1 + randbelow(rng, size))


def sample_witness_triple(
    rng: random.Random, n: int
) -> tuple[TernarySet, TernarySet, TernarySet]:
    """A seeded (A, B, C) satisfying the witness preconditions.

    Mostly builds A from a full coset of a subgroup of index 3 plus a large
    partial second coset, B as a full coset, and C inside the one coset the
    sumset misses, with sizes drawn to satisfy the mass bound tightly or
    loosely at random.  A quarter of the samples exercise the degenerate
    path with one side empty.  A dimension outside 1..MAX_DIM raises
    ValueError before any draw: F_3^0 has no subgroup of index 3.
    """
    sp = _sp.space(n)
    if n < 1:
        raise ValueError("a witness triple needs a subgroup of index 3, so n >= 1")
    size = sp.size
    if rng.random() < 0.25:
        spare = randbelow(rng, (size - 1) // 2 + 1)
        big = sample_bits(rng, range(size), size - spare)
        c = sample_bits(rng, range(size), 2 * spare + 1 + randbelow(rng, size - 2 * spare))
        a, b = (0, big) if rng.random() < 0.5 else (big, 0)
    else:
        q = 3 ** (n - 1)
        cosets = subspaces._levels(sp, 1 + randbelow(rng, size - 1))
        a_lab, a2_lab = rng.sample(range(3), 2)
        b_lab = randbelow(rng, 3)
        (c_lab,) = {0, 1, 2} - {(a_lab + b_lab) % 3, (a2_lab + b_lab) % 3}
        low = (q + 2) // 2
        delta = low + randbelow(rng, q + 1 - low)
        a = cosets[a_lab] | sample_bits(rng, list(iter_bits(cosets[a2_lab])), delta)
        b = cosets[b_lab]
        low = max(1, 2 * q - 2 * delta + 1)
        csize = low + randbelow(rng, q + 1 - low)
        c = sample_bits(rng, list(iter_bits(cosets[c_lab])), csize)
    s = sp.sumset_bits(a, b) if a and b else 0
    if s & c or not c:
        raise RuntimeError("sampler produced an invalid triple")
    if 2 * a.bit_count() + 2 * b.bit_count() + c.bit_count() <= 2 * size:
        raise RuntimeError("sampler missed the mass bound")
    return TernarySet(n, a), TernarySet(n, b), TernarySet(n, c)
