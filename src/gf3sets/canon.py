"""Linear automorphisms of F_3^n and canonical orbit representatives.

Sets are compared by their sorted index sequences: of two distinct sets,
the smaller is the one containing the least index where they differ.  The
canonical form of a set A is the smallest member of its GL(n,3)-orbit under
this order.  A walk tests A against its images: it walks image choices w_j
for the standard basis vectors e_j, one at a time and only among members
of A outside the span already chosen; fixing w_0..w_{j-1} pins the image's
membership on the index block [0, 3^j), so subtrees losing against A on
that prefix are cut without expanding them, and the walk stops at the
first prefix that beats A.

The candidates for w_j are split against A all at once.  If h maps
the indices below 3^j to their images, position 3^j + r of the new block
holds h(r) + w_j and position 2*3^j + r holds h(r) - w_j.  So the
candidates with a member at those positions are the sets plus[x] = A - x
and minus[x] = x - A at x = h(r), the walk tables.  Every walk reads
them complete.  The search hands them over: it keeps them per node, from
the empty tables of the empty set down, and gets a child's tables from
its parent's with one bit per entry, since (A | {v}) - x = (A - x) |
{v - x}.  A walk handed none builds both at its start from the
translates of A and of -A, grown one coordinate at a time.  Reading A's
new block bit by bit, a few big-integer ANDs split the candidates into
those that make a smaller image, those tied with A, and those cut.  A
node visits the tied ones in one pass, least first, and the walk stops at
the first candidate that makes a smaller image.  A is compared with
itself, along the identity path, for the whole walk, so a node never
compares its prefix with anything, and what a split reads depends only
on its level: the walk lists, per level on first use, the points r it
reads, each with the bit of A it is compared with.

A split of a sum-free set reads few of its points.  Lemma:
let A be sum-free, let a split run on a path h whose image ties B = A on
[0, L), L = 3^j (every split does: the root's trivially, a child's by its
parent's look-ahead), and let B hold position L.  Then the reads
at r = 0 and at r in B, in either half, and at r in -B, in the plus
half, change nothing.  Proof: the candidates w lie in A.  A
sum-free set misses A + A, A - A (a - b = c puts a in A + A) and -A (a
and -a in A put -a = a + a in A + A).  For r in B, h(r) is in A by the
tie, so h(r) + w is in A + A and h(r) - w in A - A; B's points r + e_j
and r - e_j lie in the same sets, as e_j (index L) is in B.  So neither
B nor any candidate holds position L + r or 2L + r.  For -r in B, h(r) =
-h(-r) as h is linear, so h(r) + w and r + e_j lie in A - A, and neither
side holds L + r.  At r = 0, h(0) = 0: every candidate holds L (it is w)
as B does, and neither holds 2L (-w and -e_j are in -A).  A read where B
and every candidate agree neither drops a candidate nor finds a smaller
one.  Without position L in B the lemma fails: at r = 0 every candidate
holds L and B does not, which is how the root split rejects {-e_0}
(index 2) at n = 2.  So the lists of a sum-free set leave those points
out; a set that is not sum-free, or a level whose L is not in B, reads
every point.  Sum-freeness costs one AND per member, plus[a] & A over a
in A, up to the first that meets A.

A level's lists depend only on the points of A below 3L, L = 3^j, and on
whether A is sum-free.  The lemma asks about L and about r and -r for r
below L (negation maps [0, L) onto itself, trit by trit), and the bits of
A compared are those at L + r and 2L + r, below 3L.  So a read table
keeps them, keyed by (L, A & [0, 3L), sum-freeness), for the other sets
of a search run (below).  The lists of a level whose key holds all of A
are not kept: they serve no other set of the run.  That level completes
the span of a set least in its orbit.  A dim-4 search (min size 14)
meets 2,393 keys, 2,377 of them such; its other 16 keys serve about
7,900 lookups, and keeping the rest too raised its peak traced memory by
about 135 KB.

A path h is a tuple.  The child's path for w_j is h followed by the
images h(r) + w_j and then h(r) - w_j, read off the translation rows of
w_j and -w_j by one itemgetter over h per frame.  The child's span,
span + <w_j>, comes from a span table: for each span met, a dict from w
to that span plus <w>, each entry made on first use with two translates
of the span.

A span table and a read table make a run pair.  The spans, the w and the
read keys met repeat across the walks of one search far more than within
one walk, so a search run hands one pair to all its lexmin tests (search
keeps one per frontier and one per task); a walk handed none makes its
own pair and drops it on return.  Each table is emptied before it would
hold more than _SPAN_TABLE_MAX keys.  A span table holds the spans of one
n only, so it keeps at most _SPAN_TABLE_MAX * 3^n entries at every n up
to MAX_WALK_DIM (F_3^4 has 212 subspaces, so a search there never
empties it).

A child's candidates are split in its parent, inline in the parent's
loop over the level's lists, before the child's frame is opened: the
split narrows them to those tied with A, or ends the walk, and the frame
is opened only when some candidate ties, starting from that split.  A
child with no such candidate would return at once, having changed
nothing.  Nothing reads the orbit of the last candidate a frame visits.
The visits are what a walk costs: the lexmin tests of a dim-4 search (min
size 14) make about 130,000 of them, nearly one child split each, and
only about 5 reads per split.

Canonical forms come by descent.  A walk that finds a smaller image
raises _Smaller with its witness: the path of the split, whose image ties
A on its block, and the candidates for the next basis image that beat A
on the next block.  _greedy_image extends that path one basis image at a
time.  At each level it keeps the candidates holding each position of the
new block, in read order, whenever any does, and takes the least; the
next level's candidates are the points of A off the path's span.  Once
the span holds A, it reads the image off the path.  The witness's prefix
already beats A, so the image is strictly smaller, and the image is
walked in turn.  The orbit is finite, so the descent ends, at the one
member of the orbit that its walk accepts: the least.  The greedy step
takes the least image on each block given the blocks before it, so
descents are short: the six canonical forms of _orbit_reps(4) take 31
walks in all, and those of the 1,898 primitive sets of F_3^3 at most 4
each.

The walk is pruned by automorphisms, after McKay ("Practical graph
isomorphism", 1981; McKay and Piperno, 2014):

* A complete path whose image equals A gives an automorphism of A,
  sending each span point of the identity path to this path's.
  It is recorded, and the walk jumps back to the depth where the two paths
  part: the rest of that sibling subtree is the image of one already
  searched.
* At every node, a candidate w_j in the same orbit as a sibling already
  searched is skipped.  Orbits are taken under the recorded automorphisms
  that fix w_0..w_{j-1} pointwise (one bitset holds the orbits of the
  searched siblings), and such an automorphism carries the searched
  subtree onto the skipped one.  Each node carries that list down the
  path: a child takes the members of its parent's list that fix w_j, and
  adds the automorphisms recorded while it is open, unfiltered.  Each of
  those maps the identity path to the path of a leaf below the node, so it
  fixes the points where the two paths agree, and the walk jumps back to
  the depth where they part: every node that goes on searching lies on
  both paths, and the new automorphism fixes its path.  So the list holds
  exactly the recorded automorphisms that fix the path, in the order
  recorded, and no node rebuilds its path to filter them.

A lexmin test may also start with automorphisms known in advance.  Any
genuine automorphism of A prunes soundly, wherever it came from: it maps
the skipped subtree onto a searched one all the same.  The search hands a
child A = S | {v}, for v inside the span of S, the automorphisms recorded
for S that fix v.  They are linear on that span, which is also the span
of A, they fix S and v, so they fix A, and pruning with them applies from
the root of the walk.  The returned list, the known ones first, still
reaches every orbit of every pointwise stabilizer (below), since that
argument asks only that the automorphisms pruned with be genuine.

Stabilizers are counted by orbits, not by leaves, in one walk of the
canonical form.  The form must be least in its orbit: the walk of
any other set finds a smaller image, and stabilizer_order_bits refuses it
with ValueError.  The walk starts with the identity path and finds, for
every level j, automorphisms fixing e_0..e_{j-1} that reach the whole
orbit of e_j under the pointwise stabilizer of e_0..e_{j-1}.  The
stabilizer order is the product of those orbit lengths over the levels of
the span of A, times prod(3^n - 3^i) over the basis vectors beyond it,
which complete the span freely.

The walk's tables and the translation rows it reads grow as 9^n, so
canonical forms, stabilizers and lexmin tests are refused above n = 6
(MAX_WALK_DIM).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from operator import itemgetter

from . import space as _sp
from .space import MAX_WALK_DIM, iter_bits, orbit_bits


_SPAN_TABLE_MAX = 256  # spans a span table keeps before it is emptied


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
        if any(type(v) is not int or not 0 <= v < sp.size for v in self.imgs):
            raise ValueError(f"a basis image is not an int index of F_3^{self.n}")
        if sp.span_bits(self.imgs) != sp.full_bits:
            raise ValueError("basis images are linearly dependent")

    @functools.cached_property
    def perm(self) -> list[int]:
        """Index permutation of the whole space induced by the map."""
        return _sp.space(self.n).linear_map(self.imgs)

    def apply_bits(self, bits: int) -> int:
        perm = self.perm
        out = 0
        for i in iter_bits(bits):
            out |= 1 << perm[i]
        return out


def random_basis(n: int, rng: random.Random) -> tuple[int, ...]:
    """The basis images of a uniformly random invertible linear map: n rows
    of n random trits each, t_0 first, redrawn until they span the space.
    Each trit is rng.getrandbits(2), redrawn while it is 3: the calls that
    randbelow(rng, 3) and rng.randrange(3) make, drawn inline rather than
    through one call per trit."""
    sp = _sp.space(n)
    getrandbits, powers = rng.getrandbits, sp.powers
    while True:
        imgs = []
        for _ in range(n):
            img = 0
            for p in powers:
                t = getrandbits(2)
                while t == 3:
                    t = getrandbits(2)
                img += t * p
            imgs.append(img)
        if sp.span_bits(imgs) == sp.full_bits:
            return tuple(imgs)


def random_gl(n: int, rng: random.Random) -> GroupElement:
    return GroupElement(n, random_basis(n, rng))


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


def orbit_of_bits(bits: int, n: int) -> set[int]:
    """Closure of {bits} under generators(n)."""
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
    """A walk found an image smaller than its set; args are the witness
    (tables, path, smaller) that _greedy_image extends."""


def _walk(bits: int, n: int, known=(), tables=None, run=None) -> list:
    """Test bits against its images under GL(n,3).

    Returns the automorphisms of bits recorded on the way as index
    permutations of the space (each moves only points of the span of
    bits), after the known ones it was given.  Raises _Smaller as soon as
    any strictly smaller image is certain.  A split of a sum-free set reads
    only the points the lemma leaves open.  tables, when given, are the
    walk tables (plus, minus) complete, and run a run pair (span table of
    dimension n, read table) to read and grow; without them the walk makes
    its own.  Raises ValueError above MAX_WALK_DIM, or when bits is
    negative or holds an index outside F_3^n, before building anything.
    """
    if n > MAX_WALK_DIM:
        raise ValueError(f"canonical forms need n <= {MAX_WALK_DIM}, got n = {n}")
    if bits < 0 or bits.bit_length() > 3**n:
        raise ValueError(f"bits is not a set of F_3^{n}: it is negative or "
                         f"holds an index of 3^{n} or more")
    sp = _sp.space(n)
    size = sp.size
    autos: list[list[int]] = list(known)
    if bits >> 1 == 0:
        return autos  # no point off the origin, which every map fixes
    neg = sp.neg
    rows = sp._rows  # the translation rows, kept by sp up to MAX_WALK_DIM
    add_row = sp.add_row
    translate = sp.translate_bits
    # plus[x] = bits - x and minus[x] = x - bits, the w with x + w and with
    # x - w in bits: the caller's, or the translates of bits and of -bits
    if tables is None:
        tables = (itemgetter(*neg)(sp.translates_bits(bits)),
                  sp.translates_bits(sp.neg_set_bits(bits)))
    spans, reads = run or ({}, {})
    # whether bits is sum-free, for the lemma of the module docstring:
    # whether plus[a] = bits - a misses bits for every member a
    sum_free = not any(tables[0][a] & bits for a in iter_bits(bits))
    levels = {}  # block -> what a split on a path of block points reads

    def leaf(j: int, hmap: tuple):
        """Record the automorphism of a complete path whose image is bits,
        unless it is the identity path; returns the depth to jump back to."""
        for k in range(j):
            if hmap[3**k] != 3**k:
                break
        else:
            return None  # the identity path
        autos.append([*hmap, *range(len(hmap), size)])
        return k

    def level(block: int) -> list:
        """Per half, its table and the points a split on a path of block
        points reads in turn, each as the code 2r + bit: the path's point
        r, and the bit of bits at block + r in the plus half and at
        2 * block + r in the minus half.  The lemma drops the points whose
        answer is known.  Made on first use in a walk, from the read table
        when it holds them."""
        key = (block, bits & (1 << 3 * block) - 1, sum_free)
        codes = reads.get(key)
        if codes is None:
            if sum_free and bits >> block & 1:
                kept = [r for r in range(1, block) if not bits >> r & 1]
                points = ([r for r in kept if not bits >> neg[r] & 1], kept)
            else:
                points = (range(block), range(block))
            # codes, not (r, bit) tuples, and a list, not tuple() of a
            # generator (built large and shrunk): the 2-tuple free list
            # keeps what a walk frees, about 0.1 MB more peak resident
            # size over the dim-4 search
            codes = [[r << 1 | bits >> offset + r & 1 for r in rs]
                     for offset, rs in zip((block, 2 * block), points)]
            if bits >> 3 * block:  # a key holding all of bits serves no other set
                if len(reads) >= _SPAN_TABLE_MAX:
                    reads.clear()
                reads[key] = codes
        got = levels[block] = list(zip(tables, codes))
        return got

    def visit(j: int, hmap: tuple, span: int, gens: list, tied: int):
        """Search below a node whose candidates for w_j tied bits, not
        none.  gens are the recorded autos that fix the path, a list of
        this frame's own."""
        block = len(hmap)
        seen = len(autos)  # the recorded autos in gens so far
        searched = 0  # the candidates searched so far
        skip = 0  # their orbits under gens
        kids = spans.get(span)  # w -> span + <w>, shared by every node on span
        if kids is None:
            if len(spans) >= _SPAN_TABLE_MAX:
                spans.clear()
            kids = spans[span] = {}
        lev = None  # the children's level lists, made on first split
        # the path's images of x + w and x - w for the x of the block, read
        # off the rows of w and -w; a one-index getter returns a scalar
        get = itemgetter(*hmap) if block > 1 else lambda row: (row[0],)
        while tied:
            bit = tied & -tied
            tied ^= bit
            if len(autos) > seen:
                # recorded below this node, so they fix its path (see the
                # module docstring)
                gens += autos[seen:]
                seen = len(autos)
                skip = orbit_bits(searched, gens)
            if skip & bit:
                continue
            searched |= bit
            if tied:  # skip is read again only while candidates are left
                skip |= orbit_bits(bit, gens) if gens else bit
            w = bit.bit_length() - 1
            child = (hmap + get(rows.get(w) or add_row(w))
                     + get(rows.get(neg[w]) or add_row(neg[w])))
            new_span = kids.get(w)
            if new_span is None:
                new_span = kids[w] = span | translate(span, w) | translate(span, neg[w])
            rest = bits & ~new_span
            if not rest:
                back = leaf(j + 1, child)
            else:
                # the child's split against bits, inline; its frame is
                # opened only if some candidate ties
                if lev is None:
                    lev = levels.get(3 * block) or level(3 * block)
                for table, codes in lev:
                    for c in codes:
                        t = table[child[c >> 1]]
                        if c & 1:
                            rest &= t
                            if not rest:
                                break
                        elif rest & t:
                            raise _Smaller(tables, child, rest & t)
                    if not rest:
                        break
                if not rest:
                    continue
                back = visit(j + 1, child, new_span,
                             [a for a in gens if a[w] == w], rest)
            if back is not None and back < j:
                return back
        return None

    try:
        # the root's split, on the path (0,), whose level lists read at
        # most its one point in each half
        tied = bits & ~1
        for table, codes in level(1):
            for c in codes:
                if c & 1:
                    tied &= table[0]
                elif tied & table[0]:
                    raise _Smaller(tables, (0,), tied & table[0])
        visit(0, (0,), 1, autos[:], tied)
    finally:
        # visit reaches itself through its closure; without this the
        # walk's tables would wait for the cycle collector
        visit = None
    return autos


def _greedy_image(bits: int, n: int, tables: tuple, path: tuple, cands: int) -> int:
    """An image of bits smaller than bits, from a walk's witness: a path
    whose image ties bits on its block, and the candidates for the next
    basis image that beat bits on the next block.  The path grows one basis
    image w at a time, least of the candidates left after keeping, at each
    position of the new block in read order, those holding it whenever any
    does; then the candidates are the points of bits off its span.  Once
    the span holds bits, the image is read off the path."""
    sp = _sp.space(n)
    path = list(path)
    span = sum(1 << x for x in path)
    while cands:
        for table in tables:
            for x in path:
                if cands & table[x]:
                    cands &= table[x]
        w = (cands & -cands).bit_length() - 1
        plus, minus = sp.add_row(w), sp.add_row(sp.neg[w])
        path += [plus[x] for x in path] + [minus[x] for x in path]
        span |= sp.translate_bits(span, w) | sp.translate_bits(span, sp.neg[w])
        cands = bits & ~span
    return sum(1 << r for r, x in enumerate(path) if bits >> x & 1)


def _span_dim(bits: int) -> int:
    """The span of a set least in its orbit is [0, 3^d), spanned by
    e_0..e_{d-1}; returns d."""
    d = 0
    while bits >> 3**d:
        d += 1
    return d


def stabilizer_order_bits(form: int, n: int) -> int:
    """The order of the setwise stabilizer of form, a set least in its
    orbit, counted by orbits along the identity path of one walk of it.
    Raises ValueError when form is not least in its orbit."""
    try:
        autos = _walk(form, n)
    except _Smaller:
        raise ValueError("the set is not least in its orbit") from None
    d = _span_dim(form)
    stab = math.prod(3**n - 3**i for i in range(d, n))
    for j in range(d):
        gens = [a for a in autos if all(a[3**i] == 3**i for i in range(j))]
        stab *= orbit_bits(1 << 3**j, gens).bit_count()
    return stab


def canonical_form_bits(bits: int, n: int) -> int:
    """The least member of the orbit of bits, by descent: each walk that
    finds a smaller image hands its witness to _greedy_image, and the
    image is walked in turn, until a walk accepts it.  One run pair serves
    every step."""
    run = ({}, {})
    while True:
        try:
            _walk(bits, n, run=run)
        except _Smaller as smaller:
            bits = _greedy_image(bits, n, *smaller.args)
        else:
            return bits


def is_lexmin_bits(bits: int, n: int, autos: list | None = None,
                   tables: tuple | None = None, run: tuple | None = None) -> bool:
    """Whether bits is least in its orbit.

    autos, when given, may already hold automorphisms of bits, as index
    permutations of the space, linear on the span of bits and the identity
    off it; the walk prunes with them from its root.  On acceptance the
    automorphisms the walk recorded are appended to it.  tables, when
    given, are the walk tables of bits complete: plus[x] = bits - x and
    minus[x] = x - bits for every index x (see the module docstring).  run,
    when given, is the run pair (span table of dimension n, read table)
    that the tests of one search run share; the walk reads and grows it."""
    known = autos or ()
    try:
        found = _walk(bits, n, known, tables, run)
    except _Smaller:
        return False
    if autos is not None:
        autos += found[len(known):]
    return True
