"""Recognition, validation and enumeration of primitive sum-free sets.

A set is primitive when it is an affine hyperplane missing the origin, or
when it decomposes over one: pick such a hyperplane H, a nonempty proper
affine subspace U inside it, a translate-pair half W of H over U, and a
primitive subset X of the linear span of U's members, and take the union
W | X.  X must stay off the direction space of U, must differ from the
mirror -U when U has codimension one in H, and must meet -U in a subset
whose affine hull is all of -U.

Primitive sets obey Lev's bound: inside a linear ambient of dimension d,
whose hyperplanes have 3^(d-1) points, (3^(d-1)+1)/2 <= |A| <= 3^(d-1).
By induction on d: a hyperplane has 3^(d-1) points, and a derived set is
the disjoint union of W and X, where the half W has (3^(d-1) - 3^k)/2
points for k = dim U <= d - 2, and X is primitive in the (k+1)-dimensional
span of U, so (3^k+1)/2 <= |X| <= 3^k.  The recognizer turns away any set
outside that window before it builds a hull, at every recursion level.

The decomposition, when it exists for a given H, is forced: the part of
the set lying in -H determines U as the negated affine hull of that part,
and U determines the split into W and X.  The recognizer walks candidate
hyperplanes in canonical order and keeps the first that works, so equal
sets always receive equal certificates.

The family is built one way, from the block table of the fixed
hyperplane H = {x_0 = 1}, whose X candidates are filtered once per cone
dimension (_x_chart), and one linear map taking H to each origin-avoiding
hyperplane (_hyperplane_maps).  The full listing below dimension 4 is the
union of the images of H's stream under these maps.  The listing and the
stream are also kept as membership columns (space.member_columns), which
answer the backward check of verify_main_theorem in a few dozen
big-integer ANDs, and below dimension 4 the superset query.  The stream is
stored only as its block table, whose product structure gives its columns.
At dimension 4 the superset query reads that block table directly, through
the same maps, and never builds the columns.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

from . import canon, halves, subspaces
from . import space as _sp
from .core import (
    TernarySet,
    _sum_free_and_maximal,
    is_sum_free,
    sym_group_bits,
)
from .space import iter_bits
from .subspaces import AffineSubspace


class CertificateError(ValueError):
    """A certificate clause failed; carries the clause tag and nesting depth."""

    def __init__(self, clause: str, depth: int, message: str):
        self.clause = clause
        self.depth = depth
        super().__init__(f"depth {depth} [{clause}]: {message}")


@dataclass(frozen=True)
class PrimitiveCertificate:
    """Witness of primitivity: a bare hyperplane, or an (H, U, W, X) split."""

    kind: str
    h: AffineSubspace
    u: Optional[AffineSubspace] = None
    w: Optional[TernarySet] = None
    x: Optional["PrimitiveCertificate"] = None

    def __post_init__(self):
        if self.kind not in ("hyperplane", "derived"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        parts = (self.u, self.w, self.x)
        if self.kind == "hyperplane" and any(p is not None for p in parts):
            raise ValueError("a hyperplane certificate carries no decomposition")
        if self.kind == "derived" and any(p is None for p in parts):
            raise ValueError("a derived certificate needs U, W and X")

    @property
    def member_bits(self) -> int:
        if self.kind == "hyperplane":
            return self.h.members_bits
        return self.w.bits | self.x.member_bits

    def to_json(self) -> dict:
        if self.kind == "hyperplane":
            return {"kind": "hyperplane", "H": self.h.to_json()}
        return {
            "kind": "derived",
            "H": self.h.to_json(),
            "U": self.u.to_json(),
            "W": self.w.indices(),
            "X": self.x.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PrimitiveCertificate":
        kind = obj["kind"]
        h = _subspace_from_json(obj["H"])
        if kind == "hyperplane":
            return cls("hyperplane", h)
        n = h.dim_ambient
        return cls(
            "derived",
            h,
            _subspace_from_json(obj["U"]),
            TernarySet.from_indices(n, obj["W"]),
            cls.from_json(obj["X"]),
        )


def _subspace_from_json(obj: dict) -> AffineSubspace:
    n = len(obj["base_point"])
    if obj.get("empty"):
        return subspaces.empty_subspace(n)
    rows = [_sp.encode(r) for r in obj["basis"]]
    return subspaces.affine_subspace(n, rows, _sp.encode(obj["base_point"]))


def cone_of_subspace(u: AffineSubspace) -> AffineSubspace:
    """Linear span of the members of a nonempty affine subspace: [U], U
    and -U are its three cosets of [U] (all one when U is linear)."""
    if u.empty:
        raise ValueError("the empty subspace spans nothing")
    bits = u.direction().members_bits | u.members_bits | u.neg().members_bits
    return AffineSubspace(u.dim_ambient, bits)


def validate_certificate(
    cert: PrimitiveCertificate,
    ambient: Optional[AffineSubspace] = None,
    _depth: int = 0,
) -> None:
    """Check every clause; raise CertificateError on the first failure.

    ambient defaults to the full space and is replaced by the span of U at
    each recursion step, so nested certificates are checked inside the
    subspace they are claimed for.
    """
    n = cert.h.dim_ambient
    if ambient is None:
        ambient = subspaces.full_space(n)

    def err(clause: str, message: str):
        raise CertificateError(clause, _depth, message)

    h = cert.h
    if h.empty:
        err("hyperplane", "H is empty")
    if ambient.dim_ambient != n:
        err("hyperplane", "ambient dimension mismatch")
    if not ambient.contains_subspace(h):
        err("hyperplane", "H is not inside the ambient subspace")
    if h.dim != ambient.dim - 1:
        err("hyperplane", f"H has dimension {h.dim}, expected {ambient.dim - 1}")
    if 0 in h:
        err("origin", "H contains the origin")
    if cert.kind == "hyperplane":
        return

    u, w, x = cert.u, cert.w, cert.x
    if u.empty:
        err("u-nonempty", "U is empty")
    if not h.contains_subspace(u):
        err("u-inside", "U is not an affine subspace of H")
    if u.dim >= h.dim:
        err("u-proper", "U must be a proper subspace of H")
    if w.dim != n or not halves.is_half(w, h, u):
        err("half", "W is not a translate-pair half of H over U")

    xbits = x.member_bits
    if w.bits & xbits:
        err("i", "W and X overlap")
    if xbits & u.direction().members_bits:
        err("ii", "X meets the direction space of U")
    nu = u.neg()
    if h.dim - u.dim < 2 and xbits == nu.members_bits:
        err("iii", "X equals -U while U has codimension one in H")
    if subspaces.affine_hull_bits(xbits & nu.members_bits, n) != nu:
        err("iv", "the affine hull of X's part in -U is not all of -U")
    validate_certificate(x, cone_of_subspace(u), _depth + 1)


# recognition walks all 3^n - 1 origin-avoiding hyperplanes; at n = 10 their
# table alone would take about 0.4 GB
MAX_RECOGNIZE_DIM = 9


def _check_recognize_dim(n: int) -> None:
    if n > MAX_RECOGNIZE_DIM:
        raise ValueError(
            f"primitive recognition is capped at dimension {MAX_RECOGNIZE_DIM}, got {n}"
        )


def recognize_primitive(a: TernarySet) -> Optional[PrimitiveCertificate]:
    """The canonical certificate of a primitive set, or None."""
    _check_recognize_dim(a.dim)
    if a.size == 0:
        return None
    return _recognize(a.bits, subspaces.full_space(a.dim))


def _recognize(bits: int, ambient: AffineSubspace) -> Optional[PrimitiveCertificate]:
    n = ambient.dim_ambient
    if bits == 0 or bits & 1 or bits & ~ambient.members_bits:
        return None
    third = ambient.members_bits.bit_count() // 3  # Lev's bound, module doc
    if not third // 2 < bits.bit_count() <= third:
        return None
    hull = subspaces.affine_hull_bits(bits, n)
    if hull.members_bits == bits and hull.dim == ambient.dim - 1:
        return PrimitiveCertificate("hyperplane", hull)
    return next(_decompositions(bits, ambient), None)


def _decompositions(bits: int, ambient: AffineSubspace):
    """Yield the certificate of bits over each origin-avoiding hyperplane H
    of ambient that carries one, in the order of
    subspaces.hyperplanes_covering: H itself when bits is H, else the split
    over H.  Only a hyperplane with bits inside H | -H can carry either."""
    for h in subspaces.hyperplanes_covering(ambient, bits):
        if h.members_bits == bits:
            yield PrimitiveCertificate("hyperplane", h)
            continue
        cert = _try_derived(bits, h)
        if cert is not None:
            yield cert


def _try_derived(bits: int, h: AffineSubspace) -> Optional[PrimitiveCertificate]:
    """The certificate of bits split over h, or None.

    bits must lie inside H | -H, as W lies in H and X in U | -U; its one
    caller, _decompositions, takes h from subspaces.hyperplanes_covering,
    which guarantees it.
    """
    n = h.dim_ambient
    mirror = bits & _sp.space(n).neg_set_bits(h.members_bits)
    if not mirror:
        return None
    nu = subspaces.affine_hull_bits(mirror, n)
    u = nu.neg()
    # nu is a subspace of -H by construction, so u sits inside H
    if u.dim >= h.dim:
        return None
    cu = cone_of_subspace(u)
    xbits = bits & cu.members_bits
    if xbits & u.direction().members_bits:
        return None
    if h.dim - u.dim < 2 and xbits == nu.members_bits:
        return None
    # the hull clause holds by construction: X meets -U exactly in the
    # mirror part, whose hull defined -U
    wbits = bits & ~xbits
    if not halves.is_half(TernarySet(n, wbits), h, u):
        return None
    xcert = _recognize(xbits, cu)
    if xcert is None:
        return None
    return PrimitiveCertificate("derived", h, u, TernarySet(n, wbits), xcert)


def _set_key(bits: int):
    return tuple(iter_bits(bits))


@functools.lru_cache(maxsize=None)
def _all_primitive_bits(n: int) -> tuple:
    """Every primitive subset of F_3^n, n <= 3, as bitsets in increasing
    order, the images of H's stream under _hyperplane_maps; none at n = 0,
    where no hyperplane avoids the origin."""
    if n > 3:
        raise ValueError("full primitive enumeration is capped at dimension 3")
    maps = _hyperplane_maps(n).values() if n else ()
    return tuple(sorted({
        sum(1 << from_h[p] for p in iter_bits(b))
        for _, from_h in maps
        for b in iter_primitive_fixed_hyperplane(n)
    }))


@functools.lru_cache(maxsize=None)
def _primitive_columns(n: int) -> tuple:
    """(member columns, lanes by size) of _all_primitive_bits(n), n <= 3;
    a few KB, read by the superset query and the backward check."""
    family = _all_primitive_bits(n)
    return _sp.member_columns(family, 3**n), _lanes_by_size(family)


def _lanes_by_size(family) -> dict:
    """For each size of a member of the family, the mask of its lanes."""
    sizes: dict = {}
    for i, b in enumerate(family):
        sizes[b.bit_count()] = sizes.get(b.bit_count(), 0) | 1 << i
    return sizes


def _primitive_blocks(h: AffineSubspace):
    """Yield (pairs, cands) for h, a block with no translate pairs and h as
    its one candidate, then for each U inside h that has X candidates, in
    (dim U, U) order: U's translate pairs in h and its X candidates
    (_x_chart).  A block's sets are _block_bits(pairs, cands)."""
    yield [], [h.members_bits]
    sp = _sp.space(h.dim_ambient)
    for udim in range(h.dim):
        chart = _x_chart(udim + 1, h.dim - udim < 2)
        if not chart:
            continue
        for u in subspaces.enumerate_affine_subspaces(h, udim):
            to_u = sp.linear_map((u.base_point, *u.direction().basis))
            cands = [sum(1 << to_u[p] for p in iter_bits(cb)) for cb in chart]
            yield halves.coset_pairs(h, u), sorted(cands, key=_set_key)


def _block_bits(pairs: list, cands: list) -> list:
    """The sets of one block, halves outer and candidates inner."""
    return [w | xb for w in halves._pair_halves(pairs) for xb in cands]


@functools.lru_cache(maxsize=None)
def _x_chart(k: int, codim_one: bool) -> tuple:
    """The X candidates over a U of dimension k - 1 in H, in U's chart: the
    map F_3^k -> [U] taking e_0 to U's base point and e_1..e_{k-1} to its
    direction basis, in which U is {x_0 = 1}, its direction {x_0 = 0} and
    -U {x_0 = 2}.  U lies in H, so it misses 0, so the chart is an
    isomorphism onto [U], which keeps primitivity and affine hulls: the
    clauses are tested once per (k, codim_one), codim_one being whether U
    has codimension one in H, and _primitive_blocks maps out the result."""
    direction, _, mirror = _sp.space(k).slabs[0]
    return tuple(
        cb for cb in _all_primitive_bits(k)
        if not (cb & direction or codim_one and cb == mirror)
        and subspaces.affine_hull_bits(cb & mirror, k).members_bits == mirror
    )


def iter_primitive_fixed_hyperplane(n: int):
    """Yield every primitive set whose decomposition uses the first
    canonical origin-avoiding hyperplane, as a bitset.

    For a fixed hyperplane the decomposition is unique, so there are no
    repeats.  Together with transitivity of the linear group on these
    hyperplanes, the stream covers all primitive sets up to isomorphism.
    Its order is pinned: block by block of _fixed_hyperplane_blocks, the
    only stored form of the stream.
    """
    for pairs, cands in _fixed_hyperplane_blocks(n):
        yield from _block_bits(pairs, cands)


@functools.lru_cache(maxsize=None)
def _fixed_hyperplane_blocks(n: int) -> tuple:
    """The block table (_primitive_blocks) of the first canonical
    origin-avoiding hyperplane, {x_0 = 1}: the one stored form of the
    stream, read by its columns and by the dimension-4 superset query."""
    return tuple(_primitive_blocks(subspaces.enumerate_hyperplanes(n, avoid_origin=True)[0]))


@functools.lru_cache(maxsize=None)
def _fixed_hyperplane_family(n: int) -> tuple:
    """(columns, sizes) of the fixed-hyperplane stream, built from its
    block table (_fixed_hyperplane_blocks): the member columns of its sets
    (space.member_columns) and the lane mask of each set size.

    Lane 0 is H.  A block is 2^P halves times Q candidates, lane j * Q + k
    being half j with candidate k, so its columns need no per-set work.
    The first member of translate pair t lies in the halves with bit t of
    j clear, runs of Q << t lanes; the second member in the others.  A
    candidate point's Q-bit column, and each candidate size (plus the
    block's |W|), repeat 2^P times by one multiplication.  About 2.4 MB of
    columns at n = 4.
    """
    columns = [0] * 3**n
    sizes: dict = {}
    offset = 0
    for pairs, cands in _fixed_hyperplane_blocks(n):
        q = len(cands)
        width = q << len(pairs)
        lanes = ((1 << width) - 1) << offset
        for t, (first, second) in enumerate(pairs):
            run = q << t
            low = _sp._repeat((1 << run) - 1, 2 * run, width) << offset
            for member, mask in ((first, low), (second, lanes ^ low)):
                for p in iter_bits(member):
                    columns[p] |= mask
        every = _sp._repeat(1, q, width) << offset  # lane k of each half
        for p, col in enumerate(_sp.member_columns(cands, 3**n)):
            if col:
                columns[p] |= col * every
        half_size = sum(first.bit_count() for first, _ in pairs)
        for s, col in _lanes_by_size(cands).items():
            sizes[half_size + s] = sizes.get(half_size + s, 0) | col * every
        offset += width
    return tuple(columns), sizes


def enumerate_primitive(n: int, up_to_iso: bool = False) -> tuple:
    """All primitive subsets of F_3^n, or one representative per orbit.

    The unreduced listing is only available for n <= 3; dimension 4 holds
    tens of millions of primitive sets, so only the reduced form is offered
    there (see iter_primitive_fixed_hyperplane for a raw stream).
    """
    if not 1 <= n <= 4:
        raise ValueError("enumeration is supported for dimensions 1 through 4")
    if up_to_iso:
        pool = _orbit_reps(n)
    elif n <= 3:
        pool = _all_primitive_bits(n)
    else:
        raise ValueError(
            "the unreduced dimension-4 listing does not fit in memory; "
            "use up_to_iso=True or iter_primitive_fixed_hyperplane"
        )
    return tuple(TernarySet(n, b) for b in sorted(pool, key=_set_key))


def _orbit_key(bits: int, n: int) -> tuple:
    """A GL(n,3)-invariant of a set: its size and its sorted section sizes
    over the affine hyperplanes, which the linear group permutes."""
    return (bits.bit_count(),
            tuple(sorted((bits & h.members_bits).bit_count()
                         for h in subspaces.enumerate_hyperplanes(n))))


@functools.lru_cache(maxsize=None)
def _orbit_reps(n: int) -> frozenset:
    """Canonical representatives of the primitive orbits of F_3^n, n <= 4.

    Every orbit meets the fixed-hyperplane stream, and one with
    representative R meets it in exactly |orbit(R)| * d(R) / (3^n - 1)
    sets, d(R) being the number of certificates _decompositions yields for
    R, one per hyperplane it decomposes over, and 3^n - 1 the number of
    origin-avoiding hyperplanes, which the linear group permutes
    transitively.  Set size is constant on orbits.  So a size is accounted
    for once the shares of the distinct orbits found sum to the stream's
    count of that size, taken from the size masks of
    _fixed_hyperplane_family: those orbits then hold every stream set of
    that size, and so every orbit of it.  That holds whichever stream sets
    were canonicalized, so the choice is free.  A first pass takes the
    canonical form only of a set of a size still open whose _orbit_key is
    new, instead of one per set (234,289 at n = 4); two orbits of one size
    may share a key, so a second pass takes the form of every set of a size
    the first left open.  Only a new form is walked again for its
    stabilizer.  A size not accounted for exactly raises RuntimeError.
    """
    left = {s: mask.bit_count() for s, mask in _fixed_hyperplane_family(n)[1].items()}
    order = canon.gl_order(n)
    reps = set()
    # the second key is the set itself, which every set has new
    for key in (_orbit_key, lambda b, n: b):
        if not any(left.values()):
            break
        keys = set()
        for b in iter_primitive_fixed_hyperplane(n):
            if left[b.bit_count()] <= 0:
                continue
            k = key(b, n)
            if k in keys:
                continue
            keys.add(k)
            r = canon.canonical_form_bits(b, n)
            if r in reps:
                continue
            reps.add(r)
            stab = canon.stabilizer_order_bits(r, n)
            d = sum(1 for _ in _decompositions(r, subspaces.full_space(n)))
            share, rem = divmod((order // stab) * d, 3**n - 1)
            if rem:
                raise RuntimeError("orbit accounting is not divisible")
            left[r.bit_count()] -= share
    if any(left.values()):
        raise RuntimeError("orbit accounting failed to cover a size")
    return frozenset(reps)


def is_subprimitive(a: TernarySet) -> bool:
    """Whether a extends to a primitive set in the same ambient space."""
    n = a.dim
    if n > 4:
        raise ValueError("subprimitive testing is available up to dimension 4")
    if not is_sum_free(a):
        return False
    return _primitive_superset(a) is not None


def _primitive_superset(a: TernarySet) -> Optional[int]:
    """Bitset of some primitive set containing a, or None; a must be sum-free.

    Below dimension 4 it is the first of _all_primitive_bits(n) that holds
    a: the lowest lane of the AND of the columns of a's members, all lanes
    for the empty set.

    At dimension 4 it scans the fixed-hyperplane block table once per
    origin-avoiding hyperplane h with a inside h | -h, in the order of
    subspaces.hyperplanes_covering, through a linear map g with g(h) = H,
    the table's hyperplane.  The answer is g^-1 of the lowest set of H's
    stream holding g(a), over the first h that has one: the lowest lane of
    the AND of g(a)'s columns in _fixed_hyperplane_family, which the scan
    never builds.  It is sound: a primitive P holding a either is some
    hyperplane h or splits over one.  Either way P, and so a, lies in
    h | -h, and g(P), being H or split over H, is in H's stream, because
    the decomposition over a fixed hyperplane is unique.  Conversely g^-1
    of a stream set is primitive.
    """
    n = a.dim
    if n > 4:
        raise ValueError("subprimitive testing is available up to dimension 4")
    if n <= 3:
        family = _all_primitive_bits(n)
        columns, _ = _primitive_columns(n)
        lanes = (1 << len(family)) - 1  # the lanes holding every member so far
        rest = a.bits
        while rest and lanes:
            low = rest & -rest
            lanes &= columns[low.bit_length() - 1]
            rest ^= low
        return family[(lanes & -lanes).bit_length() - 1] if lanes else None
    maps, blocks = _hyperplane_maps(n), _superset_scan_table(n)
    for h in subspaces.hyperplanes_covering(subspaces.full_space(n), a.bits):
        to_h, from_h = maps[h.members_bits]
        image = sum(1 << to_h[p] for p in iter_bits(a.bits))
        for outside, pairs, cands in blocks:
            if image & outside:
                continue
            found = _lowest_in_block(image, pairs, cands)
            if found is not None:
                return sum(1 << from_h[p] for p in iter_bits(found))
    return None


@functools.lru_cache(maxsize=None)
def _hyperplane_maps(n: int) -> dict:
    """(to_h, from_h) for each origin-avoiding hyperplane h, by its members:
    the index permutations of g and g^-1, plain lists, where g^-1 is the
    linear map taking the basis to h's base point and direction basis.  It
    sends H = {x_0 = 1}, the fixed hyperplane, to h, so g carries a set
    into H's frame, where its splits over h become splits over H."""
    sp = _sp.space(n)
    maps = {}
    for h in subspaces.enumerate_hyperplanes(n, avoid_origin=True):
        from_h = sp.linear_map((h.base_point, *h.direction().basis))
        maps[h.members_bits] = (sorted(range(3**n), key=from_h.__getitem__), from_h)
    return maps


@functools.lru_cache(maxsize=None)
def _superset_scan_table(n: int) -> tuple:
    """The blocks read by the dimension-4 superset query:
    _fixed_hyperplane_blocks(n), each block led by the points outside its
    translate pairs and candidates, which no set of the block holds."""
    full = _sp.space(n).full_bits
    blocks = []
    for pairs, cands in _fixed_hyperplane_blocks(n):
        inside = functools.reduce(operator.or_, cands, sum(f | s for f, s in pairs))
        blocks.append((full & ~inside, pairs, cands))
    return tuple(blocks)


def _lowest_in_block(bits: int, pairs: list, cands: list) -> Optional[int]:
    """The lowest set of a block holding bits, or None.

    The block's sets run halves outer and candidates inner, and half j
    takes the second member of pair t when bit t of j is set.  So the
    lowest half takes each pair's first member unless bits meets the
    second, and there is none when bits meets both; the candidate, off
    every pair, is the first that holds the rest of bits.
    """
    w = 0
    for first, second in pairs:
        if bits & second:
            if bits & first:
                return None
            w |= second
        else:
            w |= first
    rest = bits & ~w
    return next((w | x for x in cands if not rest & ~x), None)


@dataclass(frozen=True)
class ClassificationReport:
    """Everything the classifier can say about one set."""

    dim: int
    size: int
    sum_free: bool
    maximal: bool
    aperiodic: Optional[bool]
    sym_dim: Optional[int]
    sym_size: Optional[int]
    certificate: Optional[PrimitiveCertificate]
    subprimitive: Optional[bool]

    @property
    def primitive(self) -> bool:
        return self.certificate is not None

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "size": self.size,
            "sum_free": self.sum_free,
            "maximal": self.maximal,
            "aperiodic": self.aperiodic,
            "sym_dim": self.sym_dim,
            "sym_size": self.sym_size,
            "primitive": self.primitive,
            "certificate": None if self.certificate is None else self.certificate.to_json(),
            "subprimitive": self.subprimitive,
        }


def classify_set(a: TernarySet) -> ClassificationReport:
    """Classify one set.

    One sumset a + (a | -a) gives all three flags: sum_free, maximal, and
    through sum_free the guard of subprimitive (n <= 4; None above).  A
    primitive set is its own primitive superset, so subprimitive searches
    for a superset only when recognition found no certificate.
    """
    n = a.dim
    _check_recognize_dim(n)
    sum_free, maximal = _sum_free_and_maximal(a.bits, n)
    if a.size:
        sym = sym_group_bits(a.bits, n)
        sym_size = sym.bit_count()
        sym_dim = round(math.log(sym_size, 3))
        aperiodic = sym == 1
    else:
        sym_size = None
        sym_dim = None
        aperiodic = None
    cert = recognize_primitive(a) if sum_free else None
    sub = None
    if n <= 4:
        sub = sum_free and (cert is not None or _primitive_superset(a) is not None)
    return ClassificationReport(
        dim=n,
        size=a.size,
        sum_free=sum_free,
        maximal=maximal,
        aperiodic=aperiodic,
        sym_dim=sym_dim,
        sym_size=sym_size,
        certificate=cert,
        subprimitive=sub,
    )
