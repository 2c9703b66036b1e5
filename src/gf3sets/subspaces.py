"""Affine and linear subspaces of F_3^n.

A subspace is stored in a canonical form so that equal subspaces compare
equal structurally: the direction space is a tuple of basis rows in reduced
row echelon form (pivots at the lowest coordinate positions, pivot entry 1,
pivot columns cleared elsewhere, rows ordered by pivot), and the base point
is the member of the coset with the smallest vector index.  The empty
subspace is a distinct value, not the same thing as the zero subspace {0}.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import space as _sp
from .core import TernarySet
from .space import iter_bits


def _rref(rows: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Reduced row echelon basis (as trit tuples) of the span of rows."""
    basis: list[tuple[int, list[int]]] = []  # (pivot, row)
    for raw in rows:
        row = list(raw)
        for piv, b in basis:
            c = row[piv]
            if c:
                for k in range(n):
                    row[k] = (row[k] - c * b[k]) % 3
        piv = next((k for k, t in enumerate(row) if t), None)
        if piv is None:
            continue
        if row[piv] == 2:
            row = [(2 * t) % 3 for t in row]
        for i, (p2, b2) in enumerate(basis):
            c = b2[piv]
            if c:
                basis[i] = (p2, [(b2[k] - c * row[k]) % 3 for k in range(n)])
        basis.append((piv, row))
    basis.sort()
    return [tuple(r) for _, r in basis]


@dataclass(frozen=True)
class AffineSubspace:
    """Canonical affine subspace; construct through the factory functions."""

    dim_ambient: int
    basis: tuple[int, ...]  # direction basis rows as vector indices, RREF order
    base_point: int  # index-minimal member; 0 for the empty subspace
    empty: bool = False

    def __post_init__(self):
        _sp.check_dim(self.dim_ambient)
        if self.empty and (self.basis or self.base_point):
            raise ValueError("empty subspace carries no basis or base point")

    @property
    def dim(self) -> int:
        """Affine dimension; the empty subspace has dimension -1."""
        return -1 if self.empty else len(self.basis)

    @property
    def size(self) -> int:
        return 0 if self.empty else 3 ** len(self.basis)

    @property
    def is_linear(self) -> bool:
        return not self.empty and self.base_point == 0

    @functools.cached_property
    def members_bits(self) -> int:
        if self.empty:
            return 0
        return _sp.space(self.dim_ambient).span_bits(self.basis, self.base_point)

    def members(self) -> TernarySet:
        return TernarySet(self.dim_ambient, self.members_bits)

    def __contains__(self, index: int) -> bool:
        if self.empty:
            return False
        sp = _sp.space(self.dim_ambient)
        return _reduce_index(sp, self.basis, sp.sub(index, self.base_point)) == 0

    def contains_subspace(self, other: "AffineSubspace") -> bool:
        if other.empty:
            return True
        if self.empty:
            return False
        sp = _sp.space(self.dim_ambient)
        if other.base_point not in self:
            return False
        return all(
            _reduce_index(sp, self.basis, row) == 0 for row in other.basis
        )

    def direction(self) -> "AffineSubspace":
        """The linear subspace of differences [self] = self - self."""
        if self.empty:
            raise ValueError("the empty subspace has no direction space")
        return AffineSubspace(self.dim_ambient, self.basis, 0)

    def translate(self, v: int) -> "AffineSubspace":
        if self.empty:
            return self
        sp = _sp.space(self.dim_ambient)
        return _make_affine(sp, self.basis, sp.add(self.base_point, v))

    def neg(self) -> "AffineSubspace":
        if self.empty:
            return self
        sp = _sp.space(self.dim_ambient)
        return _make_affine(sp, self.basis, sp.neg[self.base_point])

    def to_json(self) -> dict:
        n = self.dim_ambient
        return {
            "basis": [list(_sp.decode(b, n)) for b in self.basis],
            "base_point": list(_sp.decode(self.base_point, n)),
        }


def _reduce_index(sp: _sp.Space, basis: tuple[int, ...], index: int) -> int:
    """Reduce index against an RREF basis; 0 iff index lies in the span."""
    cur = index
    for row in basis:
        if cur == 0:
            break
        piv = next(k for k, t in enumerate(sp.trits[row]) if t)
        c = sp.trits[cur][piv]
        if c:
            cur = sp.sub(cur, sp.scale(row, c))
    return cur


def _canonical_base(sp: _sp.Space, basis: tuple[int, ...], point: int) -> int:
    bits = sp.span_bits(basis, point)
    return (bits & -bits).bit_length() - 1


def _make_affine(sp: _sp.Space, basis_rows, point: int) -> AffineSubspace:
    rows = _rref([sp.trits[r] for r in basis_rows], sp.n)
    basis = tuple(_sp.encode(r) for r in rows)
    return AffineSubspace(sp.n, basis, _canonical_base(sp, basis, point))


def affine_subspace(n: int, direction_rows, point: int) -> AffineSubspace:
    """Coset point + span(direction_rows), canonicalized."""
    return _make_affine(_sp.space(n), tuple(direction_rows), point)


def linear_subspace(n: int, rows) -> AffineSubspace:
    return affine_subspace(n, rows, 0)


def empty_subspace(n: int) -> AffineSubspace:
    return AffineSubspace(n, (), 0, empty=True)


def full_space(n: int) -> AffineSubspace:
    return AffineSubspace(n, tuple(3**i for i in range(n)), 0)


def subspace_from_member_bits(bits: int, n: int) -> AffineSubspace:
    """Build the subspace whose member set is exactly the given bitset.

    Raises ValueError if the bitset is not an affine subspace.
    """
    if bits == 0:
        return empty_subspace(n)
    sp = _sp.space(n)
    base = (bits & -bits).bit_length() - 1
    gens = [sp.sub(i, base) for i in iter_bits(bits)]
    out = _make_affine(sp, gens, base)
    if out.members_bits != bits:
        raise ValueError("bitset is not an affine subspace")
    return out


def affine_hull_bits(bits: int, n: int) -> AffineSubspace:
    if bits == 0:
        return empty_subspace(n)
    sp = _sp.space(n)
    base = (bits & -bits).bit_length() - 1
    gens = [sp.sub(i, base) for i in iter_bits(bits)]
    return _make_affine(sp, gens, base)


def affine_hull(a: TernarySet) -> AffineSubspace:
    """Smallest affine subspace containing a; empty subspace for empty a."""
    return affine_hull_bits(a.bits, a.dim)


def hyperplane_from_normal(n: int, normal: int, c: int) -> AffineSubspace:
    """The hyperplane {x : normal . x = c} for a nonzero functional."""
    sp = _sp.space(n)
    if not 0 < normal < sp.size:
        raise ValueError(f"normal must be a nonzero index below {sp.size}")
    a = sp.trits[normal]
    piv = next(i for i, t in enumerate(a) if t)
    if a[piv] == 2:
        a = tuple((2 * t) % 3 for t in a)
        c = (2 * c) % 3
    rows = []
    for j in range(n):
        if j == piv:
            continue
        row = [0] * n
        row[j] = 1
        row[piv] = (-a[j]) % 3
        rows.append(tuple(row))
    basis = tuple(_sp.encode(r) for r in _rref(rows, n))
    # minimal member: zero everywhere except the pivot coordinate
    base = c * 3**piv
    return AffineSubspace(n, basis, base)


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
        trits = sp.trits[a]
        if next(t for t in trits if t) != 1:
            continue
        for c in (1, 2) if avoid_origin else (0, 1, 2):
            out.append(hyperplane_from_normal(n, a, c))
    return tuple(out)


def enumerate_rref_bases(n: int, k: int):
    """Yield all RREF bases of k-dimensional linear subspaces of F_3^n."""
    if k == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n), k):
        free_cells = []
        for i, p in enumerate(pivots):
            for j in range(p + 1, n):
                if j not in pivots:
                    free_cells.append((i, j))
        for values in itertools.product((0, 1, 2), repeat=len(free_cells)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free_cells, values):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


def chart_decode(v: AffineSubspace, chart_index: int) -> int:
    """Map a chart index of the linear subspace v back to the ambient index."""
    sp = _sp.space(v.dim_ambient)
    lam = _sp.decode(chart_index, len(v.basis))
    out = 0
    for c, row in zip(lam, v.basis):
        if c:
            out = sp.add(out, sp.scale(row, c))
    return out


def chart_encode(v: AffineSubspace, index: int) -> int:
    """Coordinates of an ambient member of the linear subspace v in its chart."""
    sp = _sp.space(v.dim_ambient)
    trits = sp.trits[index]
    lam = []
    for row in v.basis:
        piv = next(i for i, t in enumerate(sp.trits[row]) if t)
        lam.append(trits[piv])
    return _sp.encode(lam)


def _check_linear(v: AffineSubspace) -> None:
    if v.empty or not v.is_linear:
        raise ValueError("hyperplanes of a subspace need a linear subspace")


def _from_chart(v: AffineSubspace, h: AffineSubspace) -> AffineSubspace:
    """The image in the ambient space of a subspace h of v's chart."""
    if len(v.basis) == v.dim_ambient:
        # the chart of the full space is the identity
        return h
    rows = tuple(chart_decode(v, b) for b in h.basis)
    return _make_affine(_sp.space(v.dim_ambient), rows, chart_decode(v, h.base_point))


def hyperplanes_within(v: AffineSubspace, avoid_origin: bool = False) -> list[AffineSubspace]:
    """Affine hyperplanes of the linear subspace v, in canonical chart order."""
    _check_linear(v)
    return [_from_chart(v, h) for h in enumerate_hyperplanes(len(v.basis), avoid_origin)]


def hyperplanes_covering(v: AffineSubspace, bits: int):
    """Yield the origin-avoiding hyperplanes H of v with bits inside H | -H.

    v is a linear subspace containing bits.  The hyperplanes come in the
    order of hyperplanes_within(v, avoid_origin=True).  The two hyperplanes
    of one chart normal are H and -H, the nonzero level sets of a linear
    functional on v, so bits lies in their union exactly when the chart
    image of bits lies in it.  That test reads the cached chart table, and
    only a passing hyperplane is built in the ambient space.
    """
    _check_linear(v)
    chart_bits = bits
    if len(v.basis) < v.dim_ambient:
        chart_bits = sum(1 << chart_encode(v, x) for x in iter_bits(bits))
    planes = enumerate_hyperplanes(len(v.basis), avoid_origin=True)
    for k in range(0, len(planes), 2):
        if chart_bits & ~(planes[k].members_bits | planes[k + 1].members_bits):
            continue
        yield _from_chart(v, planes[k])
        yield _from_chart(v, planes[k + 1])


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

    Each direction is spanned once; its cosets inside h are then walked as
    in halves.coset_pairs: the least index left is the canonical base point
    of its coset, and that coset is cleared.  A table of more than
    MAX_FLATS subspaces is refused with ValueError before it is built.
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
    sp = _sp.space(h.dim_ambient)
    d = h.direction()
    out = []
    for chart_rows in enumerate_rref_bases(h.dim, k):
        rows = [sp.trits[chart_decode(d, _sp.encode(r))] for r in chart_rows]
        basis = tuple(_sp.encode(r) for r in _rref(rows, sp.n))
        direction = sp.span_bits(basis)
        rest = h.members_bits
        while rest:
            x = (rest & -rest).bit_length() - 1
            coset = sp.translate_bits(direction, x)
            e = AffineSubspace(sp.n, basis, x)
            e.__dict__["members_bits"] = coset  # fills the cached property
            out.append(e)
            rest &= ~coset
    out.sort(key=lambda s: (s.basis, s.base_point))
    return tuple(out)
