"""Linear automorphisms of F_3^n and canonical orbit representatives.

Sets are compared by their sorted index sequences: of two distinct sets,
the smaller is the one containing the least index where they differ.  The
canonical form of a set A is the smallest member of its GL(n,3)-orbit under
this order.  Minimization walks image choices w_j for the standard basis
vectors e_j, one at a time and only among members of A outside the span
already chosen; fixing w_0..w_{j-1} pins the image's membership on the
index block [0, 3^j), so subtrees losing against the current best on that
prefix are cut without expanding them (the new block is compared index by
index, and a candidate is dropped at its first losing bit).

The walk is pruned by automorphisms, after McKay ("Practical graph
isomorphism", 1981; McKay and Piperno, 2014):

* A complete path whose image equals the current best gives an
  automorphism of A, sending the best path's span points to this path's.
  It is recorded, and the walk jumps back to the depth where the two paths
  part: the rest of that sibling subtree is the image of one already
  searched.
* At every node, a candidate w_j in the same orbit as a sibling already
  searched is skipped.  Orbits are taken under the recorded automorphisms
  that fix w_0..w_{j-1} pointwise (union-find over the points), and such
  an automorphism carries the searched subtree onto the skipped one.

Stabilizers are counted by orbits, not by leaves.  A fixed-mode walk of the
canonical form starts with the identity path and finds, for every level j,
automorphisms fixing e_0..e_{j-1} that reach the whole orbit of e_j under
the pointwise stabilizer of e_0..e_{j-1}.  The stabilizer order is the
product of those orbit lengths over the levels of the span of A, times
prod(3^n - 3^i) over the basis vectors beyond it, which complete the span
freely.

The walk reads the addition table of the space, which Space keeps for
n <= 6 only, so canonical forms, stabilizers and lexmin tests are refused
above that.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from . import space as _sp
from .space import iter_bits


def gl_order(n: int) -> int:
    return math.prod(3**n - 3**i for i in range(n))


@dataclass(frozen=True)
class GroupElement:
    """An invertible linear map, stored as the basis images in index form."""

    n: int
    imgs: tuple[int, ...]

    def __post_init__(self):
        sp = _sp.space(self.n)
        if len(self.imgs) != self.n:
            raise ValueError("need one image per basis vector")
        if sp.span_bits(self.imgs) != sp.full_bits:
            raise ValueError("basis images are linearly dependent")

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(n, tuple(3**i for i in range(n)))

    @functools.cached_property
    def perm(self) -> list[int]:
        """Index permutation of the whole space induced by the map.

        Built one coordinate at a time: the indices x + e_j and x - e_j
        follow the indices x spanned by e_0..e_{j-1}, so their images are
        the image of x plus and minus the image of e_j.
        """
        sp = _sp.space(self.n)
        perm = [0]
        for img in self.imgs:
            minus = sp.neg[img]
            perm += [sp.add(x, img) for x in perm] + [sp.add(x, minus) for x in perm]
        return perm

    def apply_index(self, i: int) -> int:
        return self.perm[i]

    def apply_bits(self, bits: int) -> int:
        perm = self.perm
        out = 0
        for i in iter_bits(bits):
            out |= 1 << perm[i]
        return out


def random_gl(n: int, rng: random.Random) -> GroupElement:
    sp = _sp.space(n)
    while True:
        imgs = tuple(_sp.encode(rng.randrange(3) for _ in range(n)) for _ in range(n))
        if sp.span_bits(imgs) == sp.full_bits:
            return GroupElement(n, imgs)


def generators(n: int) -> tuple[GroupElement, ...]:
    """A small generating set: a scaling, a coordinate cycle, a transvection."""
    if n < 1:
        raise ValueError("no automorphisms below dimension 1")
    e = [3**i for i in range(n)]
    scale = GroupElement(n, tuple([2 * e[0]] + e[1:]))
    if n == 1:
        return (scale,)
    cycle = GroupElement(n, tuple(e[1:] + e[:1]))
    sp = _sp.space(n)
    shear = GroupElement(n, tuple([sp.add(e[0], e[1])] + e[1:]))
    return (scale, cycle, shear)


def orbit_of_bits(bits: int, n: int, gens=None) -> set[int]:
    """Closure of {bits} under a generating set (defaults to generators(n))."""
    if gens is None:
        gens = generators(n)
    seen = {bits}
    frontier = [bits]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            img = g.apply_bits(cur)
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return seen


def _compare(t: int, b: int) -> int:
    """-1, 0, 1 for t smaller, equal, bigger in the least-index-wins order."""
    diff = t ^ b
    if not diff:
        return 0
    return -1 if t & (diff & -diff) else 1


class _Smaller(Exception):
    pass


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _walk(bits: int, n: int, fixed: bool):
    """Minimize bits over GL(n,3), or (fixed) test bits against itself.

    Returns (best, autos): the least image, and the automorphisms of bits
    recorded on the way as index permutations of the space (each moves only
    points of the span of bits).  In fixed mode the best path is the
    identity, and _Smaller is raised as soon as any strictly smaller image
    is certain.  Raises ValueError above n = 6, where Space keeps no
    addition table.
    """
    sp = _sp.space(n)
    add = sp.add_rows
    if add is None:
        raise ValueError(
            f"canonical forms need the addition table of n <= 6, got n = {n}"
        )
    size = sp.size
    autos: list[list[int]] = []
    if bits == 0:
        return 0, autos
    neg = sp.neg
    state = {"best": bits if fixed else None, "hmap": range(size)}

    def leaf(j: int, hmap: list[int], prefix: int):
        """Settle a complete path; returns the depth to jump back to."""
        best = state["best"]
        c = -1 if best is None else _compare(prefix, best)
        if c < 0:
            if fixed:
                raise _Smaller
            state["best"] = prefix
            state["hmap"] = hmap
        elif c == 0:
            best_hmap = state["hmap"]
            for k in range(j):
                if hmap[3**k] != best_hmap[3**k]:
                    break
            else:
                return None  # the best path itself
            a = list(range(size))
            for x, y in zip(best_hmap, hmap):
                a[x] = y
            autos.append(a)
            return k
        return None

    def rec(j: int, hmap: list[int], span: int, prefix: int):
        if bits & ~span == 0:
            return leaf(j, hmap, prefix)
        block = 3**j
        low = (1 << block) - 1
        mask = (1 << 3 * block) - 1
        path = [hmap[3**i] for i in range(j)]
        parent = None  # union-find of the orbits of autos fixing path
        seen = 0
        searched = []
        for w in iter_bits(bits & ~span):
            for a in autos[seen:]:
                if all(a[p] == p for p in path):
                    if parent is None:
                        parent = list(range(size))
                    for x, y in enumerate(a):
                        if x != y:
                            parent[_find(parent, x)] = _find(parent, y)
            seen = len(autos)
            if parent is not None:
                r = _find(parent, w)
                if any(_find(parent, u) == r for u in searched):
                    continue
            searched.append(w)
            row1 = add[w]
            row2 = add[neg[w]]
            best = state["best"]
            c = -1 if best is None else _compare(prefix, best & low)
            if c == 0:
                # compare the new block with the best, least index first
                for base, row in ((block, row1), (2 * block, row2)):
                    want = best >> base
                    for r, hr in enumerate(hmap):
                        bit = bits >> row[hr] & 1
                        if bit != want >> r & 1:
                            c = -1 if bit else 1
                            break
                    if c:
                        break
            if c > 0:
                continue
            if c < 0 and fixed:
                raise _Smaller
            # images of x + e_j, then of x - e_j, for the x of the block
            images = [row1[hr] for hr in hmap] + [row2[hr] for hr in hmap]
            new_span = span
            for p in images:
                new_span |= 1 << p
            if c == 0:
                t = best & mask
            else:
                t = prefix
                for r, p in enumerate(images, block):
                    if bits >> p & 1:
                        t |= 1 << r
            back = rec(j + 1, hmap + images, new_span, t)
            if back is not None and back < j:
                return back
        return None

    rec(0, [0], 1, bits & 1)
    return state["best"], autos


def canonicalize_bits(bits: int, n: int) -> tuple[int, int]:
    """(canonical form, setwise stabilizer order), the order counted by
    orbits along the identity path of a fixed-mode walk of the form."""
    best = _walk(bits, n, fixed=False)[0]
    autos = _walk(best, n, fixed=True)[1]
    d = 0
    while best >> 3**d:
        d += 1
    stab = math.prod(3**n - 3**i for i in range(d, n))
    for j in range(d):
        gens = [a for a in autos if all(a[3**i] == 3**i for i in range(j))]
        orbit = {3**j}
        frontier = [3**j]
        while frontier:
            x = frontier.pop()
            for a in gens:
                if a[x] not in orbit:
                    orbit.add(a[x])
                    frontier.append(a[x])
        stab *= len(orbit)
    return best, stab


def canonical_form_bits(bits: int, n: int) -> int:
    return _walk(bits, n, fixed=False)[0]


def is_lexmin_bits(bits: int, n: int) -> bool:
    try:
        _walk(bits, n, fixed=True)
    except _Smaller:
        return False
    return True
