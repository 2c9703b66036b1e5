"""Slow reference implementations used to cross-check the fast paths.

Everything here works on plain trit tuples with explicit modular
arithmetic and python sets; no tables, encodings, or helpers are shared
with the package under test.  The exceptions are the last three
functions, former package code kept as the reference for what replaced
it: the dimension-4 primitive-superset search, the hyperplanes of a
linear subspace through its chart, and the X candidates over one U
tested in its own chart.
"""

import functools
from itertools import combinations, product
from typing import Optional


def to_trits(index, n):
    out = []
    for _ in range(n):
        index, r = index % 3, index // 3
        out.append(index)
        index = r
    return tuple(out)


def to_index(trits):
    total = 0
    for t in reversed(trits):
        total = total * 3 + t
    return total


def add(u, v):
    return tuple((a + b) % 3 for a, b in zip(u, v))


def neg(u):
    return tuple((-a) % 3 for a in u)


def sub(u, v):
    return add(u, neg(v))


def all_vectors(n):
    return [tuple(reversed(p)) for p in product(range(3), repeat=n)]


def sumset(a, b):
    return {add(x, y) for x in a for y in b}


def difference_set(a, b):
    return {sub(x, y) for x in a for y in b}


def is_sum_free(a):
    a = set(a)
    return not any(add(x, y) in a for x in a for y in a)


def is_maximal_sum_free(a, n):
    a = set(a)
    if not is_sum_free(a):
        return False
    return all(v in a or not is_sum_free(a | {v}) for v in all_vectors(n))


def sym_group(a, n):
    a = set(a)
    return {h for h in all_vectors(n) if {add(x, h) for x in a} == a}


def kneser_sizes(a, b, n):
    """(|A+B|, |A+K|, |B+K|, |K|) for K = Sym(A+B), by pairwise sums."""
    s = sumset(a, b)
    k = sym_group(s, n)
    return len(s), len(sumset(a, k)), len(sumset(b, k)), len(k)


def span(vectors, n):
    out = {(0,) * n}
    for v in vectors:
        grown = set(out)
        for c in (1, 2):
            cv = v if c == 1 else neg(v)
            grown |= {add(x, cv) for x in out}
        while True:
            more = {add(x, y) for x in grown for y in grown}
            if more <= grown:
                break
            grown |= more
        out = grown
    return out


def rref(rows, n):
    """Reduced row echelon basis of the span of rows, ordered by pivot.

    Column by column: a remaining row nonzero in the column is scaled to a
    leading 1 and cleared from every other row, kept or remaining.
    """
    rest = [list(r) for r in rows]
    out = []
    for col in range(n):
        pick = next((r for r in rest if r[col]), None)
        if pick is None:
            continue
        rest.remove(pick)
        pick = [(pick[col] * x) % 3 for x in pick]  # 1 and 2 are self-inverse
        rest = [[(x - r[col] * y) % 3 for x, y in zip(r, pick)] for r in rest]
        out = [[(x - r[col] * y) % 3 for x, y in zip(r, pick)] for r in out]
        out.append(pick)
    return [tuple(r) for r in out]


def affine_hull(points, n):
    points = list(points)
    if not points:
        return set()
    base = points[0]
    direction = span([sub(p, base) for p in points[1:]], n)
    return {add(base, d) for d in direction}


def affine_flats(points, n, k):
    """The distinct k-dimensional affine hulls of subsets of points.

    Every k-flat is the hull of k + 1 of its points, so only subsets of that
    size are tried; a subset inside a flat already found adds nothing new.
    """
    found = []
    for subset in combinations(points, k + 1):
        if any(set(subset) <= f for f in found):
            continue
        hull = affine_hull(subset, n)
        if len(hull) == 3**k:
            found.append(frozenset(hull))
    return set(found)


def gaussian_binomial(n, k):
    """Number of k-dimensional linear subspaces of F_3^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= 3 ** (n - i) - 1
        den *= 3 ** (i + 1) - 1
    return num // den


def matrices(n):
    cols = all_vectors(n)
    return product(cols, repeat=n)


def is_invertible(mat, n):
    rows = [list(r) for r in mat]
    rank = 0
    for col in range(n):
        pivot = next(
            (r for r in range(rank, n) if rows[r][col] % 3), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 if rows[rank][col] % 3 == 1 else 2
        rows[rank] = [(x * inv) % 3 for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] % 3:
                f = rows[r][col] % 3
                rows[r] = [(x - f * y) % 3 for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank == n


def gl_elements(n):
    """All invertible matrices, given row-wise (row i = image of basis vector i)."""
    return [m for m in matrices(n) if is_invertible(m, n)]


def apply_matrix(mat, v):
    n = len(v)
    out = (0,) * n
    for coeff, row in zip(v, mat):
        for _ in range(coeff):
            out = add(out, row)
    return out


@functools.lru_cache(maxsize=None)
def gl_action(n):
    """The action of each element of gl_elements(n) on the points, as a
    tuple of images indexed by point index; built once per session with
    apply_matrix."""
    points = sorted(all_vectors(n), key=to_index)
    return [tuple(to_index(apply_matrix(mat, v)) for v in points) for mat in gl_elements(n)]


def orbit_min(a, n):
    """Least image of the set under the full linear group, as a sorted
    index tuple, with the number of elements achieving it: a brute-force
    minimum over every group element's image of the set."""
    idx = [to_index(v) for v in a]
    best = None
    hits = 0
    for image_of in gl_action(n):
        img = tuple(sorted(image_of[i] for i in idx))
        if best is None or img < best:
            best, hits = img, 1
        elif img == best:
            hits += 1
    return best, hits


def maximal_sumfree_sets(n, min_size=1):
    """Every maximal sum-free set, by filtering all subsets; n <= 2 only."""
    if n > 2:
        raise ValueError("the oracle only scans dimensions 1 and 2")
    vectors = all_vectors(n)
    out = []
    for size in range(min_size, 3**n + 1):
        for sub_ in combinations(vectors, size):
            if is_maximal_sum_free(set(sub_), n):
                out.append(frozenset(sub_))
    return out


def _primitive_superset_dim4(bits: int) -> Optional[int]:
    """First primitive maximal superset found by direct extension, or None.

    Branches on the least admissible element: a maximal sum-free superset
    either contains it or must stay sum-free after it is struck from the
    admissible pool, and in the latter case the element has to be blocked
    by something chosen later.  The blocked cover grows with each element
    v taken: for A' = A | {v}, A' + A' and A' - A' add v + A', v - A' and
    A' - v to those of A, and A' adds v itself.
    """
    from gf3sets import TernarySet, subspaces
    from gf3sets import space as _sp
    from gf3sets.core import blocked_cover_bits
    from gf3sets.primitive import _recognize

    sp = _sp.space(4)
    full = sp.full_bits
    translate = sp.translate_bits

    def rec(cur: int, banned: int, cover: int) -> Optional[int]:
        free = full & ~cover
        open_free = free & ~banned
        if free == 0:
            return cur if _recognize(cur, subspaces.full_space(4)) else None
        if open_free == 0:
            return None  # some admissible element was banned but never blocked
        v = (open_free & -open_free).bit_length() - 1
        grown = cur | 1 << v
        hit = rec(grown, banned, cover | 1 << v | translate(grown, v)
                  | translate(sp.neg_set_bits(grown), v) | translate(grown, sp.neg[v]))
        if hit is not None:
            return hit
        return rec(cur, banned | 1 << v, cover)

    return rec(bits, 0, blocked_cover_bits(TernarySet(4, bits)))


def hyperplanes_within(v, avoid_origin: bool = False) -> list:
    """Affine hyperplanes of the linear subspace v, each the image of a
    hyperplane of v's chart by chart_decode, in canonical chart order."""
    from gf3sets import subspaces

    if not v.is_linear:
        raise ValueError("hyperplanes of a subspace need a linear subspace")
    return [
        subspaces.affine_subspace(
            v.dim_ambient,
            [subspaces.chart_decode(v, b) for b in h.basis],
            subspaces.chart_decode(v, h.base_point),
        )
        for h in subspaces.enumerate_hyperplanes(v.dim, avoid_origin)
    ]


def x_candidates_by_point(u, cu, h) -> list:
    """The X candidates over (h, u) by the clauses of the primitive module
    docstring, from the primitive sets of the span cu of u's chart, with
    each chart point mapped by its own chart_decode call."""
    from gf3sets import primitive, subspaces
    from gf3sets.space import iter_bits

    n = u.dim_ambient
    nu = u.neg()
    out = []
    for cb in primitive._all_primitive_bits(cu.dim):
        xb = 0
        for ci in iter_bits(cb):
            xb |= 1 << subspaces.chart_decode(cu, ci)
        off_direction = xb & u.direction().members_bits == 0
        not_mirror = h.dim - u.dim >= 2 or xb != nu.members_bits
        if off_direction and not_mirror and subspaces.affine_hull_bits(xb & nu.members_bits, n) == nu:
            out.append(xb)
    return out
