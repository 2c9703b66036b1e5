"""Subsets of F_3^n, with the sum-free set operations.

The set type here is deliberately a thin wrapper around the integer
encodings from the space module: a TernarySet is (dim, bitset).  It is
immutable and hashable, so it can be used as a dictionary key and shared
freely between threads; every operation allocates a fresh object.

Sets can be read and written in a small text format:

    dim 3
    # comment lines and blank lines are ignored
    1 0 1
    2 0 0

The first meaningful line must be ``dim N``; every further line is one
vector given as N space-separated trits in {0, 1, 2}.  Duplicate vectors
are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import space as _sp
from .space import iter_bits


class ParseError(ValueError):
    """Malformed set text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, slots=True)
class TernarySet:
    dim: int
    bits: int

    def __post_init__(self):
        _sp.check_dim(self.dim)
        if self.bits < 0 or self.bits >> 3**self.dim:
            raise ValueError(f"bitset out of range for dimension {self.dim}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, dim: int) -> "TernarySet":
        return cls(dim, 0)

    @classmethod
    def full(cls, dim: int) -> "TernarySet":
        return cls(dim, (1 << 3**dim) - 1)

    @classmethod
    def from_indices(cls, dim: int, indices: Iterable[int]) -> "TernarySet":
        bits = 0
        limit = 3**dim
        for i in indices:
            if not 0 <= i < limit:
                raise ValueError(f"index {i} out of range for dimension {dim}")
            bits |= 1 << i
        return cls(dim, bits)

    # -- basic queries -----------------------------------------------------

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> list[int]:
        return list(iter_bits(self.bits))

    def __contains__(self, index: int) -> bool:
        return bool((self.bits >> index) & 1)

    def __len__(self) -> int:
        return self.size


def _same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} versus {b.dim}")


# -- arithmetic on sets ------------------------------------------------------


def negate(a: TernarySet) -> TernarySet:
    return TernarySet(a.dim, _sp.space(a.dim).neg_set_bits(a.bits))


def sumset(a: TernarySet, b: TernarySet) -> TernarySet:
    """{x + y : x in a, y in b}; empty if either side is empty."""
    _same_dim(a, b)
    return TernarySet(a.dim, _sp.space(a.dim).sumset_bits(a.bits, b.bits))


def difference_set(a: TernarySet, b: TernarySet) -> TernarySet:
    """{x - y : x in a, y in b}."""
    _same_dim(a, b)
    return TernarySet(a.dim, _sp.space(a.dim).difference_set_bits(a.bits, b.bits))


def k_fold_sumset(a: TernarySet, k: int) -> TernarySet:
    """a + a + ... + a with k summands; k >= 1.

    Write S_j for the j-fold sumset.  A nonempty a has 0 = x + x + x in
    S_3, so S_{j+3} = S_j + S_3 contains S_j: each residue class of j mod
    3 gives a chain that only grows, so it grows at most 3^n times.  Once
    S_j = S_{j-3}, S_{j+1} = S_j + a = S_{j-3} + a = S_{j-2}, and so on,
    so the sequence has period 3 from j - 3 on and S_k is the one of the
    last three terms whose index is k mod 3.  The loop stops there, so a
    huge k costs no more sumsets than the chains take to settle (an empty
    a settles at once).
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    last = (a,)  # the last three terms made, oldest first
    for j in range(2, k + 1):
        out = sumset(last[-1], a)
        if j > 3 and out == last[0]:  # S_j = S_{j-3}
            return last[(k - j) % 3]
        last = last[-2:] + (out,)
    return last[-1]


def is_sum_free_bits(bits: int, n: int) -> bool:
    """Whether a = bits misses a + a, the sumset walk stopped at the first
    block that puts a sum inside a."""
    return _sp.space(n).sumset_bits(bits, bits, bits) & bits == 0


def is_sum_free(a: TernarySet) -> bool:
    """True iff x + y = z has no solution with x, y, z in a (x = y allowed)."""
    return is_sum_free_bits(a.bits, a.dim)


def _sums_and_differences(bits: int, n: int, stop: int = 0) -> int:
    """(a + a) | (a - a) for a = bits: the |a| translates of a | -a, the
    walk stopped once it meets stop (Space.sumset_bits)."""
    sp = _sp.space(n)
    return sp.sumset_bits(bits, bits | sp.neg_set_bits(bits), stop)


def blocked_cover_bits(a: TernarySet) -> int:
    """Bitset of elements that cannot extend a while keeping it sum-free.

    v outside this cover has sum-free a | {v}.  The cover is
    a | (a+a) | (a-a) | (-a) | {0}, where -a lies in a + a (-x = x + x).
    """
    return a.bits | _sums_and_differences(a.bits, a.dim) | 1


def _sum_free_and_maximal(bits: int, n: int) -> tuple[bool, bool]:
    """(sum-free, maximal sum-free) of a = bits from one sumset a + (a | -a).

    a is sum-free exactly when (a + a) | (a - a) misses a, because
    x - y = z means x = y + z; a sum-free a is maximal when its blocked
    cover is the whole space.  The walk stops at the first sum inside a,
    so a result that misses a is the whole sumset.
    """
    sums = _sums_and_differences(bits, n, bits)
    sum_free = sums & bits == 0
    return sum_free, sum_free and bits | sums | 1 == (1 << 3**n) - 1


def _maximal_sum_free_lanes(columns, lanes: int, n: int) -> int:
    """The lanes, of member columns M (space.member_columns) of subsets
    of F_3^n masked by lanes, whose sets are maximal sum-free.

    _sum_free_and_maximal on every lane at once: S[x + y] |= M[x] &
    (M[y] | M[-y]) over all ordered pairs is the column of each point of
    A + (A | -A); the -y term needs every pair, as x - z and z - x differ.
    A lane fails where M[p] & S[p] is set, or where a point p != 0 is in
    neither M[p] nor S[p].
    """
    sp = _sp.space(n)
    both = [columns[y] | columns[sp.neg[y]] for y in range(sp.size)]
    sums = [0] * sp.size
    for x, mx in enumerate(columns):
        if mx:
            row = sp.add_row(x)
            for y, my in enumerate(both):
                hit = mx & my
                if hit:
                    sums[row[y]] |= hit
    for p, (member, blocked) in enumerate(zip(columns, sums)):
        lanes &= ~(member & blocked)
        if p:
            lanes &= member | blocked
    return lanes


def is_maximal_sum_free(a: TernarySet) -> bool:
    """Sum-free and not properly contained in any sum-free set."""
    return _sum_free_and_maximal(a.bits, a.dim)[1]


def sym_group_bits(bits: int, n: int) -> int:
    """Bitset of the translation stabilizer {t : bits + t = bits}.

    t is a period iff s + t lies in the set for every member s, so the
    stabilizer is the intersection of the translates set - s over the
    members s, and the running intersection always contains it.  The loop
    stops once that intersection is {0}, or, whenever it shrinks to 3^k
    members, once it is a subgroup whose generators fix the set
    (_is_stabilizer): such a subgroup lies inside the stabilizer, so it
    is the stabilizer.  A periodic set then costs a few translates
    instead of one per member.  A translation maps the complement onto
    itself exactly when it maps the set onto itself, so the smaller of the
    two is intersected.  The full set's complement is empty, and over no
    translates the intersection is the whole space.

    The stabilizer is a subgroup of order 3^s and the set is a union of
    its cosets, so 3^s divides |bits|: a set whose size is prime to 3 has
    only the trivial period, and no translate is taken.
    """
    if bits == 0:
        raise ValueError("the translation stabilizer of the empty set is undefined")
    sp = _sp.space(n)
    if bits.bit_count() % 3:
        return 1
    rest = sp.full_bits & ~bits
    if rest.bit_count() < bits.bit_count():
        bits = rest
    out = sp.full_bits
    for s in iter_bits(bits):
        cut = out & sp.translate_bits(bits, sp.neg[s])
        if cut == out:
            continue
        out = cut
        if out == 1:
            break
        if out.bit_count() in sp.powers and _is_stabilizer(sp, out, bits):
            break
    return out


def _is_stabilizer(sp: _sp.Space, group: int, bits: int) -> bool:
    """Whether group, a set of translations that holds the stabilizer of
    bits, is that stabilizer.

    It is exactly when group is a subgroup, that is equal to the span of
    its members, and each member that span was grown from (at most n of
    them; Space.span_members_bits) fixes bits.  Given what group holds,
    the second test implies the first, as the span of those members then
    lies in the stabilizer and so in group; the span test only turns a
    group that is no subgroup away before any translate.  The least
    nonzero member g is tried alone first: a subgroup holds -g, and on
    most sets g already moves bits, so the span is seldom grown.
    """
    rest = group ^ 1
    g = (rest & -rest).bit_length() - 1
    if not group >> sp.neg[g] & 1 or sp.translate_bits(bits, g) != bits:
        return False
    span, generators = sp.span_members_bits(group)
    return span == group and all(sp.translate_bits(bits, g) == bits for g in generators[1:])


def sym_group(a: TernarySet):
    """Translation stabilizer Sym(a) = {t : a + t = a} as a linear subspace.

    Raises ValueError on the empty set.
    """
    from . import subspaces

    bits = sym_group_bits(a.bits, a.dim)
    return subspaces.subspace_from_member_bits(bits, a.dim)


def is_aperiodic(a: TernarySet) -> bool:
    return sym_group_bits(a.bits, a.dim) == 1


# -- text format ----------------------------------------------------------------


def parse_set_text(text: str) -> TernarySet:
    dim = None
    bits = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if dim is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "dim":
                raise ParseError("expected header of the form 'dim N'", lineno)
            try:
                dim = int(parts[1])
            except ValueError:
                raise ParseError(f"bad dimension {parts[1]!r}", lineno) from None
            try:
                _sp.check_dim(dim)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            continue
        parts = line.split()
        if len(parts) != dim:
            raise ParseError(
                f"expected {dim} trits, got {len(parts)}", lineno
            )
        try:
            trits = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"non-integer trit in {line!r}", lineno) from None
        for t in trits:
            if t not in (0, 1, 2):
                raise ParseError(f"trit out of range: {t}", lineno)
        index = _sp.encode(trits)
        if (bits >> index) & 1:
            raise ParseError(f"duplicate vector {line!r}", lineno)
        bits |= 1 << index
    if dim is None:
        raise ParseError("missing 'dim N' header", 1)
    return TernarySet(dim, bits)


def format_set_text(a: TernarySet) -> str:
    lines = [f"dim {a.dim}"]
    for i in iter_bits(a.bits):
        lines.append(" ".join(str(t) for t in _sp.decode(i, a.dim)))
    return "\n".join(lines) + "\n"
