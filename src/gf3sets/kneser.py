"""Sumset size inequalities and periodicity witnesses.

The central quantity is the stabilizer K = Sym(A+B) of a sumset: the
subgroup of translations fixing it.  kneser_check asserts the lower bound
|A+B| >= |A+K| + |B+K| - |K| on concrete pairs; find_stabilizer_witness
builds, for disjointness data (A, B, C) of large total mass, a subgroup K
with |A+K| + |B+K| = |G| such that C fits inside one K-coset.  The
construction follows the underlying argument instead of searching: for
nonempty A and B the sumset's own stabilizer works, and if exactly one of
them is empty the whole group does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import canon, subspaces
from . import space as _sp
from .core import TernarySet, difference_set, sumset, sym_group_bits
from .statements import CheckResult
from .space import iter_bits
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


def kneser_check(a: TernarySet, b: TernarySet) -> CheckResult:
    """Assert |A+B| >= |A+K| + |B+K| - |K| for K = Sym(A+B).

    Equality occurrences are recorded in the result but nothing is claimed
    about them.
    """
    name = "kneser"
    n = _require_same_dim(a, b)
    if a.size == 0 or b.size == 0:
        raise ValueError("the sumset stabilizer of an empty sumset is undefined")
    s = sumset(a, b)
    k = TernarySet(n, sym_group_bits(s.bits, n))
    a_plus_k = sumset(a, k).size
    b_plus_k = sumset(b, k).size
    quantities = {
        "sumset": s.size,
        "a_plus_k": a_plus_k,
        "b_plus_k": b_plus_k,
        "k": k.size,
        "equality": s.size == a_plus_k + b_plus_k - k.size,
    }
    if s.size >= a_plus_k + b_plus_k - k.size:
        detail = f"{s.size} >= {a_plus_k} + {b_plus_k} - {k.size}"
        if quantities["equality"]:
            detail += " (equality)"
        return CheckResult.holds(name, detail, witness=quantities)
    return CheckResult.counterexample(
        name,
        f"{s.size} < {a_plus_k} + {b_plus_k} - {k.size}",
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
    if c.size == 0:
        raise HypothesisError("empty-C", "C must be nonempty")
    s = sumset(a, b) if a.size and b.size else TernarySet.empty(n)
    if s.bits & c.bits:
        raise HypothesisError("sumset-meets-C", "C intersects A+B")
    if 2 * a.size + 2 * b.size + c.size <= 2 * 3**n:
        raise HypothesisError(
            "mass-too-small",
            f"2|A| + 2|B| + |C| = {2 * a.size + 2 * b.size + c.size} "
            f"must exceed {2 * 3**n}",
        )
    if a.size == 0 or b.size == 0:
        # mass forces the other side nonempty, and the whole group works
        k = subspaces.full_space(n)
    else:
        k = subspaces.subspace_from_member_bits(sym_group_bits(s.bits, n), n)
    c0 = (c.bits & -c.bits).bit_length() - 1
    coset = k.translate(c0)

    kset = TernarySet(n, k.members_bits)
    a_plus_k = sumset(a, kset).size if a.size else 0
    b_plus_k = sumset(b, kset).size if b.size else 0
    if a_plus_k + b_plus_k != 3**n:
        raise RuntimeError(
            f"witness invariant broken: |A+K| + |B+K| = {a_plus_k} + {b_plus_k}"
        )
    if c.bits & ~coset.members_bits:
        raise RuntimeError("witness invariant broken: C escapes its coset")
    return StabilizerWitness(k, coset)


def sample_kneser_pair(rng: random.Random, n: int) -> tuple[TernarySet, TernarySet]:
    """A seeded nonempty pair, biased toward periodic structure so the
    stabilizer is frequently nontrivial."""
    return _sample_set(rng, n), _sample_set(rng, n)


def _sample_set(rng: random.Random, n: int) -> TernarySet:
    sp = _sp.space(n)
    if rng.random() < 1 / 3:
        k = rng.randrange(0, n + 1)
        v = sp.span_bits(canon.random_basis(n, rng)[:k])
        bits = 0
        for _ in range(rng.randrange(1, 4)):
            bits |= sp.translate_bits(v, rng.randrange(sp.size))
        for _ in range(rng.randrange(0, 3)):
            bits |= 1 << rng.randrange(sp.size)
        return TernarySet(n, bits)
    return _random_subset(rng, sp, rng.randrange(1, sp.size + 1))


def sample_witness_triple(
    rng: random.Random, n: int
) -> tuple[TernarySet, TernarySet, TernarySet]:
    """A seeded (A, B, C) satisfying the witness preconditions.

    Mostly builds A from a full coset of a subgroup of index 3 plus a large
    partial second coset, B as a full coset, and C inside the one coset the
    sumset misses, with sizes drawn to satisfy the mass bound tightly or
    loosely at random.  A quarter of the samples exercise the degenerate
    path with one side empty.
    """
    sp = _sp.space(n)
    size = sp.size
    if rng.random() < 0.25:
        spare = rng.randrange(0, (size - 1) // 2 + 1)
        big = _random_subset(rng, sp, size - spare)
        c = _random_subset(rng, sp, rng.randrange(2 * spare + 1, size + 1))
        pair = (TernarySet.empty(n), big)
        a, b = pair if rng.random() < 0.5 else pair[::-1]
    else:
        q = 3 ** (n - 1)
        normal = rng.randrange(1, size)
        cosets = [
            subspaces.hyperplane_from_normal(n, normal, t).members_bits
            for t in range(3)
        ]
        a_lab, a2_lab = rng.sample(range(3), 2)
        b_lab = rng.randrange(3)
        (c_lab,) = set(range(3)) - {(a_lab + b_lab) % 3, (a2_lab + b_lab) % 3}
        delta = rng.randrange((q + 2) // 2, q + 1)
        abits = cosets[a_lab]
        for i in rng.sample(list(iter_bits(cosets[a2_lab])), delta):
            abits |= 1 << i
        a = TernarySet(n, abits)
        b = TernarySet(n, cosets[b_lab])
        csize = rng.randrange(max(1, 2 * q - 2 * delta + 1), q + 1)
        cbits = 0
        for i in rng.sample(list(iter_bits(cosets[c_lab])), csize):
            cbits |= 1 << i
        c = TernarySet(n, cbits)
    s = sumset(a, b) if a.size and b.size else TernarySet.empty(n)
    if s.bits & c.bits or c.size == 0:
        raise RuntimeError("sampler produced an invalid triple")
    if 2 * a.size + 2 * b.size + c.size <= 2 * size:
        raise RuntimeError("sampler missed the mass bound")
    return a, b, c


def _random_subset(rng: random.Random, sp: _sp.Space, size: int) -> TernarySet:
    bits = 0
    for i in rng.sample(range(sp.size), size):
        bits |= 1 << i
    return TernarySet(sp.n, bits)
