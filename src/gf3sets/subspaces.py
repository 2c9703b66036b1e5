"""Affine and linear subspaces of F_3^n.

A subspace is its member bitset and nothing else, so equal subspaces
compare and hash equal by construction.  The empty subspace has the bitset
0; it is a distinct value, not the same thing as the zero subspace {0}.

The canonical description used for JSON and for ordering is read off the
bits.  The base point is the lowest member.  The direction basis is in
reduced row echelon form (pivots at the lowest coordinate positions, pivot
entry 1, pivot columns cleared elsewhere, rows ordered by pivot).
Translating the coset by minus the base point gives the direction space L,
and the digit slabs of space.Space find its RREF rows: coordinate p is a
pivot iff some member of L has trit 1 at p and trit 0 at every coordinate
before p, and the row of pivot p is the one member of L with trit 1 at p
and trit 0 at every other pivot.

So a member of L is fixed by its trits at the pivots: the member
sum(lambda_k * row_k) has trit lambda_k at the k-th pivot.  The chart of a
linear subspace of dimension k is F_3^k, and chart_decode and chart_encode
map between the two by those pivot trits.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import space as _sp
from .core import TernarySet
from .space import iter_bits


@dataclass(frozen=True)
class AffineSubspace:
    """Affine subspace as its member bitset; construct through the factory
    functions, which only ever pass a coset or 0."""

    dim_ambient: int
    members_bits: int  # 0 for the empty subspace

    @functools.cached_property
    def _chart(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(RREF basis rows, their pivot coordinates) of the direction."""
        sp = _sp.space(self.dim_ambient)
        lin = sp.translate_bits(self.members_bits, sp.neg[self.base_point])
        return _direction_basis(sp, lin)

    @property
    def basis(self) -> tuple[int, ...]:
        """Direction basis rows as vector indices, in RREF order."""
        return self._chart[0]

    @property
    def base_point(self) -> int:
        """The index-minimal member; 0 for the empty subspace."""
        bits = self.members_bits
        return (bits & -bits).bit_length() - 1 if bits else 0

    @property
    def empty(self) -> bool:
        return not self.members_bits

    @property
    def dim(self) -> int:
        """Affine dimension; the empty subspace has dimension -1.  A coset
        has 3^dim members, so this is read off the member count and builds
        no chart."""
        size = self.members_bits.bit_count()
        return round(math.log(size, 3)) if size else -1

    @property
    def size(self) -> int:
        return self.members_bits.bit_count()

    @property
    def is_linear(self) -> bool:
        return bool(self.members_bits & 1)

    def members(self) -> TernarySet:
        return TernarySet(self.dim_ambient, self.members_bits)

    def __contains__(self, index: int) -> bool:
        return bool(self.members_bits >> index & 1)

    def contains_subspace(self, other: "AffineSubspace") -> bool:
        return not other.members_bits & ~self.members_bits

    def direction(self) -> "AffineSubspace":
        """The linear subspace of differences [self] = self - self."""
        if self.empty:
            raise ValueError("the empty subspace has no direction space")
        return self.translate(_sp.space(self.dim_ambient).neg[self.base_point])

    def translate(self, v: int) -> "AffineSubspace":
        sp = _sp.space(self.dim_ambient)
        return AffineSubspace(self.dim_ambient, sp.translate_bits(self.members_bits, v))

    def neg(self) -> "AffineSubspace":
        sp = _sp.space(self.dim_ambient)
        return AffineSubspace(self.dim_ambient, sp.neg_set_bits(self.members_bits))

    def to_json(self) -> dict:
        n = self.dim_ambient
        out = {
            "basis": [list(_sp.decode(b, n)) for b in self.basis],
            "base_point": list(_sp.decode(self.base_point, n)),
        }
        if self.empty:  # else it reads as the zero subspace {0}
            out["empty"] = True
        return out


def _direction_basis(sp: _sp.Space, lin: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(RREF basis rows as vector indices, pivot coordinates) of the linear
    subspace whose member bitset is lin (see the module docstring)."""
    pivots = []
    lead = lin  # members whose trits before coordinate p are all 0
    for p, (s0, s1, _) in enumerate(sp.slabs):
        if lead == 1:
            break
        if lead & s1:
            pivots.append(p)
        lead &= s0
    rows = []
    for p in pivots:
        row = lin & sp.slabs[p][1]
        for q in pivots:
            if q != p:
                row &= sp.slabs[q][0]
        rows.append(row.bit_length() - 1)
    return tuple(rows), tuple(pivots)


def affine_subspace(n: int, direction_rows, point: int) -> AffineSubspace:
    """The coset point + span(direction_rows)."""
    return AffineSubspace(n, _sp.space(n).span_bits(direction_rows, point))


def linear_subspace(n: int, rows) -> AffineSubspace:
    return affine_subspace(n, rows, 0)


def empty_subspace(n: int) -> AffineSubspace:
    return AffineSubspace(_sp.check_dim(n), 0)


def full_space(n: int) -> AffineSubspace:
    return AffineSubspace(n, _sp.space(n).full_bits)


def subspace_from_member_bits(bits: int, n: int) -> AffineSubspace:
    """Build the subspace whose member set is exactly the given bitset.

    Raises ValueError if the bitset is not an affine subspace.
    """
    out = affine_hull_bits(bits, n)
    if out.members_bits != bits:
        raise ValueError("bitset is not an affine subspace")
    return out


def affine_hull_bits(bits: int, n: int) -> AffineSubspace:
    """Smallest affine subspace containing the bitset: its least member plus
    the span of the differences to it.  The span is grown from at most n of
    the differences (Space.span_members_bits), so the cost is O(n)
    big-integer steps whatever the size of the set."""
    if bits == 0:
        return empty_subspace(n)
    sp = _sp.space(n)
    base = (bits & -bits).bit_length() - 1
    span, _ = sp.span_members_bits(sp.translate_bits(bits, sp.neg[base]))
    return AffineSubspace(n, sp.translate_bits(span, base))


def affine_hull(a: TernarySet) -> AffineSubspace:
    """Smallest affine subspace containing a; empty subspace for empty a."""
    return affine_hull_bits(a.bits, a.dim)


def _levels(sp: _sp.Space, normal: int) -> tuple[int, int, int]:
    """The level sets {x : normal . x = c} for c = 0, 1, 2, as bitsets.

    They are built on the digit slabs, one coordinate at a time: level c
    after coordinate i is the union over the digits d of
    (level c - a_i d before it) & slabs[i][d].
    """
    levels = (sp.full_bits, 0, 0)
    for a, slabs in zip(_sp.decode(normal, sp.n), sp.slabs):
        if a:
            levels = tuple(
                levels[e] & slabs[0]
                | levels[(e - a) % 3] & slabs[1]
                | levels[(e - 2 * a) % 3] & slabs[2]
                for e in range(3)
            )
    return levels


def hyperplane_from_normal(n: int, normal: int, c: int) -> AffineSubspace:
    """The hyperplane {x : normal . x = c} for a nonzero functional."""
    sp = _sp.space(n)
    if not 0 < normal < sp.size:
        raise ValueError(f"normal must be a nonzero index below {sp.size}")
    if c not in (0, 1, 2):
        raise ValueError(f"label must be 0, 1 or 2, got {c}")
    return AffineSubspace(n, _levels(sp, normal)[c])


@functools.lru_cache(maxsize=None)
def enumerate_hyperplanes(n: int, avoid_origin: bool = False) -> tuple[AffineSubspace, ...]:
    """All affine hyperplanes of F_3^n in canonical (normal, value) order.

    Functionals are taken up to scaling with first nonzero trit 1, in index
    order; values run over {1, 2} when avoiding the origin, else {0, 1, 2}.
    Counts: 3^n - 1 avoiding the origin, 3 (3^n - 1) / 2 in total.
    """
    if n < 1:
        raise ValueError("hyperplanes need dimension at least 1")
    sp = _sp.space(n)
    out = []
    for a in range(1, sp.size):
        if next(t for t in _sp.decode(a, n) if t) != 1:
            continue
        levels = _levels(sp, a)
        for c in (1, 2) if avoid_origin else (0, 1, 2):
            out.append(AffineSubspace(n, levels[c]))
    return tuple(out)


def enumerate_rref_bases(n: int, k: int):
    """Yield all RREF bases of k-dimensional linear subspaces of F_3^n, each
    a tuple of k row indices in pivot order; the free cells after each
    pivot run over all trits, the last cell fastest."""
    for pivots in itertools.combinations(range(n), k):
        free_cells = [
            (i, 3**j) for i, p in enumerate(pivots) for j in range(p + 1, n) if j not in pivots
        ]
        for values in itertools.product((0, 1, 2), repeat=len(free_cells)):
            rows = [3**p for p in pivots]
            for (i, power), t in zip(free_cells, values):
                rows[i] += t * power
            yield tuple(rows)


def chart_decode(v: AffineSubspace, chart_index: int) -> int:
    """Map a chart index of the linear subspace v back to the ambient index:
    the member of v whose trits at the pivots of v are the chart trits."""
    slabs = _sp.space(v.dim_ambient).slabs
    bits = v.members_bits
    for p in v._chart[1]:
        chart_index, t = divmod(chart_index, 3)
        bits &= slabs[p][t]
    return bits.bit_length() - 1


def chart_encode(v: AffineSubspace, index: int) -> int:
    """Coordinates of an ambient member of the linear subspace v in its
    chart: its trits at the pivots of v."""
    return _sp.encode(index // 3**p % 3 for p in v._chart[1])


def _from_chart(v: AffineSubspace, h: AffineSubspace) -> AffineSubspace:
    """The image in the ambient space of a subspace h of v's chart."""
    if v.dim == v.dim_ambient:
        # the chart of the full space is the identity
        return h
    rows = [chart_decode(v, b) for b in h.basis]
    bits = _sp.space(v.dim_ambient).span_bits(rows, chart_decode(v, h.base_point))
    return AffineSubspace(v.dim_ambient, bits)


@functools.lru_cache(maxsize=None)
def _kernel_masks(k: int) -> tuple[int, ...]:
    """The kernel of each functional of F_3^k, one per pair H, -H of
    enumerate_hyperplanes(k, avoid_origin=True), in that order: the
    complement of H | -H."""
    full = _sp.space(k).full_bits
    planes = enumerate_hyperplanes(k, avoid_origin=True)
    return tuple(
        full & ~(planes[i].members_bits | planes[i + 1].members_bits)
        for i in range(0, len(planes), 2)
    )


def hyperplanes_covering(v: AffineSubspace, bits: int):
    """Yield the origin-avoiding hyperplanes H of v with bits inside H | -H.

    v is a linear subspace containing bits.  The hyperplanes come in the
    order of their chart images in enumerate_hyperplanes(v.dim, True).  The
    two hyperplanes of one chart normal are H and -H, the nonzero level
    sets of a linear functional on v, so bits lies in their union exactly
    when the chart image of bits misses the functional's kernel.  That test
    is one AND with a mask of the cached per-dimension kernel table, and
    only a passing hyperplane is built in the ambient space.  The dimension
    of v is read off its member count, so the full space builds no chart.
    """
    if not v.is_linear:
        raise ValueError("hyperplanes of a subspace need a linear subspace")
    chart_bits = bits
    k = v.dim
    if k < v.dim_ambient:
        chart_bits = sum(1 << chart_encode(v, x) for x in iter_bits(bits))
    planes = enumerate_hyperplanes(k, avoid_origin=True)
    for i, kernel in enumerate(_kernel_masks(k)):
        if chart_bits & kernel:
            continue
        yield _from_chart(v, planes[2 * i])
        yield _from_chart(v, planes[2 * i + 1])


# the largest flat table the library needs, the 88,452 lines of F_3^6,
# fits; the lines of F_3^7 (796,797 of them, some 0.4 GB) do not
MAX_FLATS = 100_000


def _flat_count(d: int, k: int) -> int:
    """Number of k-dimensional affine subspaces of a d-dimensional one:
    the Gaussian binomial [d, k]_3 times the 3^(d - k) cosets of each."""
    num = den = 1
    for i in range(k):
        num *= 3 ** (d - i) - 1
        den *= 3 ** (i + 1) - 1
    return num // den * 3 ** (d - k)


@functools.lru_cache(maxsize=None)
def enumerate_affine_subspaces(h: AffineSubspace, k: int) -> tuple[AffineSubspace, ...]:
    """All k-dimensional affine subspaces contained in h, by (basis, base_point).

    Each direction is spanned once, and the directions are sorted by basis.
    The cosets of one direction inside h are then walked as in
    halves.coset_pairs: the least index left is the base point of its
    coset, and that coset is cleared, so they come in base point order.  A
    table of more than MAX_FLATS subspaces is refused with ValueError
    before it is built.
    """
    if h.empty:
        return ()
    if k < 0 or k > h.dim:
        return ()
    count = _flat_count(h.dim, k)
    if count > MAX_FLATS:
        raise ValueError(
            f"{count} affine subspaces of dimension {k} in dimension {h.dim} "
            f"exceed the table bound of {MAX_FLATS}"
        )
    n = h.dim_ambient
    sp = _sp.space(n)
    d = h.direction()
    directions = sorted(
        (
            AffineSubspace(n, sp.span_bits(chart_decode(d, r) for r in rows))
            for rows in enumerate_rref_bases(h.dim, k)
        ),
        key=lambda e: e.basis,
    )
    out = []
    for e in directions:
        rest = h.members_bits
        while rest:
            coset = sp.translate_bits(e.members_bits, (rest & -rest).bit_length() - 1)
            out.append(AffineSubspace(n, coset))
            rest &= ~coset
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _flat_columns(n: int, k: int) -> tuple[int, ...]:
    """Member columns (space.member_columns) of the k-flats of F_3^n, kept
    beside the flat tuple and refused with it above MAX_FLATS."""
    flats = enumerate_affine_subspaces(full_space(n), k)
    return _sp.member_columns((e.members_bits for e in flats), 3**n)


def flats_within(bits: int, n: int, k: int) -> list[AffineSubspace]:
    """The k-flats of F_3^n inside the bitset, in enumerate_affine_subspaces
    order: the lanes left after clearing the column of every point outside
    it."""
    flats = enumerate_affine_subspaces(full_space(n), k)
    columns = _flat_columns(n, k)
    lanes = (1 << len(flats)) - 1
    outside = _sp.space(n).full_bits & ~bits
    while outside and lanes:
        low = outside & -outside
        lanes &= ~columns[low.bit_length() - 1]
        outside ^= low
    return [flats[i] for i in iter_bits(lanes)]
