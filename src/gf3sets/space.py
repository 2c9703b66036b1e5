"""Index arithmetic for F_3^n with a little-endian base-3 vector encoding.

A vector (t_0, ..., t_{n-1}) with trits t_i in {0, 1, 2} is stored as the
integer index sum(t_i * 3**i).  Subsets of F_3^n are plain Python integers
used as bitsets: bit i is set iff the vector with index i is a member.
A vector is its index and nothing else: no table of trit tuples is kept,
and encode and decode convert one vector at a time where trits are read.

Set operations are bit-sliced.  For each coordinate i a Space keeps three
digit slabs: slabs[i][d] is the mask of the indices whose trit i is d.
Adding c to trit i carries slab d onto slab (d + c) mod 3, which is a shift
of the masked bits by a multiple of p = 3**i.  A Space lists these moves
once per vector: moves[v] holds one entry (up, a, down, b) per nonzero trit
of v, so that bits -> (bits & up) << a | (bits & down) >> b adds that trit.
Trit 1 moves slabs 0|1 up by p and slab 2 down by 2p; trit 2 moves slab 0
up by 2p and slabs 1|2 down by p.  Translating a set by v is then one
masked pair of big-integer shifts per entry, with no branch and no work for
a zero trit, and negation swaps slabs 1 and 2; either costs O(n)
big-integer operations whatever the size of the set.  A sumset is the union
of the translates of the larger set by the members of the smaller, taken
block by block: with k = n // 2, the members that share their last n - k
trits fill one block of 3^k consecutive indices, the larger set is moved
once per distinct low part (the first k trits) and those low translates are
kept for every block, and each block's union of them is moved once by its
high part.  The walk stops as soon as the union is the whole space, and,
when the caller passes a stop mask, as soon as the union meets it: a
sum-free test asks only whether A + A meets A, and stops at the first
block that puts a sum inside A.  A
span grows one generator g at a time, by the translates by g and 2g of
the span so far; spanning the members of a bitset takes its least member
outside the span at each step, so it makes at most n steps.

Scalar addition reads rows of the translations x -> x + v, each built on
first use.  Rows are kept only up to MAX_WALK_DIM, where the orbit walk of
canon reads them over and over; above it a kept row per right operand
would hold 3^n entries for the life of the process, so each call builds
its row afresh.  The search, at n <= 4, also reads point rows: the
one-point sets {v - x} and {x - v} over the indices x, which reference one
list of the ints 1 << i and are kept once built.

The seeded samplers of kneser, canon and suite draw through randbelow and
sample_bits.  They make exactly the getrandbits calls that CPython 3.11's
random.Random makes for randrange(m) and for sample(population, k): a
draw of m.bit_length() bits, redrawn while it is at least m, and sample's
own choice between a shrinking pool and a set of the indices drawn so far.
So every seeded sample, count and report is what the random module would
give, and sample_bits returns the bitset of the sample without building
its list.  test_space's parity tests hold them to the random module, draw
for draw and state for state.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Iterable, Iterator

MAX_DIM = 12
MAX_WALK_DIM = 6  # canon's orbit walk refuses larger n; rows are kept up to it


def check_dim(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"dimension must be an int, got {n!r}")
    if n < 0 or n > MAX_DIM:
        raise ValueError(f"dimension must be between 0 and {MAX_DIM}, got {n}")
    return n


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set bit positions of a bitset in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def orbit_bits(points: int, perms: list[list[int]]) -> int:
    """The union of the orbits of the points of a bitset under the group
    generated by perms, index permutations of the space."""
    out = points
    todo = []
    while points:
        low = points & -points
        todo.append(low.bit_length() - 1)
        points ^= low
    while todo:
        x = todo.pop()
        for a in perms:
            y = a[x]
            if not out >> y & 1:
                out |= 1 << y
                todo.append(y)
    return out


def member_columns(family, size: int) -> tuple[int, ...]:
    """A family of bitsets over size points as membership columns (a
    bitmap index, Chan and Ioannidis, SIGMOD 1998): bit i of column p is
    set when member i holds p.  Filled as bytearrays, at one step per
    member point."""
    family = tuple(family)
    width = (len(family) + 7) // 8
    cols = [bytearray(width) for _ in range(size)]
    for i, bits in enumerate(family):
        byte, lane = i >> 3, 1 << (i & 7)
        while bits:
            low = bits & -bits
            cols[low.bit_length() - 1][byte] |= lane
            bits ^= low
    return tuple(int.from_bytes(c, "little") for c in cols)


def encode(trits: Iterable[int]) -> int:
    index = 0
    power = 1
    for t in trits:
        if t not in (0, 1, 2):
            raise ValueError(f"trit out of range: {t!r}")
        index += t * power
        power *= 3
    return index


def decode(index: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(index % 3)
        index //= 3
    return tuple(out)


def randbelow(rng: random.Random, m: int) -> int:
    """rng.randrange(m) from the same getrandbits calls: m.bit_length()
    bits, redrawn while they are at least m."""
    if m <= 0:  # getrandbits(0) is 0, so the loop below would never end
        raise ValueError(f"empty range for randbelow({m})")
    k = m.bit_length()
    getrandbits = rng.getrandbits
    r = getrandbits(k)
    while r >= m:
        r = getrandbits(k)
    return r


def sample_bits(rng: random.Random, population, k: int) -> int:
    """The bitset of rng.sample(population, k) for a sequence of distinct
    indices, from the same getrandbits calls.

    Like random.sample, it draws from a pool of the members not yet taken,
    shrunk by moving its last member into the vacancy, when the population
    is at most setsize (21, plus 4^ceil(log_4 3k) when k > 5); otherwise
    it draws indices into the whole population and redraws those taken.
    """
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError(f"sample of {k} from a population of {n}")
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    out = 0
    if n <= setsize:
        pool = list(population)
        for m in range(n, n - k, -1):
            b = m.bit_length()
            j = getrandbits(b)
            while j >= m:
                j = getrandbits(b)
            out |= 1 << pool[j]
            pool[j] = pool[m - 1]
        return out
    b = n.bit_length()
    taken = 0
    for _ in range(k):
        j = getrandbits(b)
        while j >= n or taken >> j & 1:
            j = getrandbits(b)
        taken |= 1 << j
        out |= 1 << population[j]
    return out


def _repeat(pattern: int, period: int, size: int) -> int:
    """pattern (period bits wide) repeated to fill size bits, by doubling."""
    while period < size:
        pattern |= pattern << period
        period *= 2
    return pattern & ((1 << size) - 1)


def _translate(bits: int, moves: tuple) -> int:
    """bits + v for the vector v with the given moves (see Space.moves)."""
    for up, a, down, b in moves:
        bits = (bits & up) << a | (bits & down) >> b
    return bits


def _grow(span: int, moves: tuple) -> int:
    """span + {0, g, 2g} for the vector g with the given moves."""
    shifted = _translate(span, moves)
    return span | shifted | _translate(shifted, moves)


class Space:
    """Digit slabs, negation and move tables, and bitset operations for one n."""

    def __init__(self, n: int):
        check_dim(n)
        self.n = n
        self.size = 3**n
        self.full_bits = (1 << self.size) - 1
        self._block = 3 ** (n // 2)  # sumset_bits walks blocks of this many indices
        self.powers = tuple(3**i for i in range(n))
        self.slabs = tuple(
            tuple(_repeat(((1 << p) - 1) << (d * p), 3 * p, self.size) for d in range(3))
            for p in self.powers
        )
        # Each table grows one coordinate at a time: with p = 3^i, the
        # indices x + d*p for d = 0, 1, 2 follow the indices x of the first
        # i coordinates, and their entries follow those of x.  A move list
        # gains the entry of trit d, none for d = 0 (see the module doc).
        neg = [0]
        moves: list[tuple] = [()]
        for p, (s0, s1, s2) in zip(self.powers, self.slabs):
            neg = [x + (-d % 3) * p for d in range(3) for x in neg]
            entry = ((), ((s0 | s1, p, s2, 2 * p),), ((s0, 2 * p, s1 | s2, p),))
            moves = [m + entry[d] for d in range(3) for m in moves]
        self.neg = neg
        self.moves = moves
        self._rows: dict[int, list[int]] = {}
        self._point_rows: dict[int, tuple] = {}
        # set here, not by a cached_property: writing an instance's
        # __dict__ makes every attribute read of it slower in CPython 3.11
        self._ones: list[int] | None = None

    # -- scalar index arithmetic ------------------------------------------

    def add_row(self, v: int) -> list[int]:
        """The translation x -> x + v as a list over the indices x, grown
        one coordinate at a time like the tables above; kept once built
        when n <= MAX_WALK_DIM."""
        row = self._rows.get(v)
        if row is None:
            row = [0]
            for p, t in zip(self.powers, decode(v, self.n)):
                row = [x + (d + t) % 3 * p for d in range(3) for x in row]
            if self.n <= MAX_WALK_DIM:
                self._rows[v] = row
        return row

    def point_rows(self, v: int) -> tuple[list[int], list[int]]:
        """The one-point sets {v - x} and {x - v} as lists over the indices
        x, both read off the row of -v; kept once built, and every row
        references the one list of the ints 1 << i."""
        got = self._point_rows.get(v)
        if got is None:
            ones, neg = self._ones, self.neg
            if ones is None:
                ones = self._ones = [1 << i for i in range(self.size)]
            row = self.add_row(neg[v])
            got = self._point_rows[v] = ([ones[neg[d]] for d in row], [ones[d] for d in row])
        return got

    def add(self, i: int, j: int) -> int:
        return self.add_row(j)[i]

    def linear_map(self, imgs) -> list[int]:
        """The linear map F_3^k -> F_3^n with e_i -> imgs[i], k = len(imgs),
        as a list over the indices of F_3^k.  Built one coordinate at a
        time: the indices x + e_j and x - e_j follow the indices x spanned
        by e_0..e_{j-1}, so their images are the image of x plus and minus
        imgs[j]."""
        out = [0]
        for img in imgs:
            plus, minus = self.add_row(img), self.add_row(self.neg[img])
            out += [plus[x] for x in out] + [minus[x] for x in out]
        return out

    # -- bitset operations -------------------------------------------------

    def translate_bits(self, bits: int, v: int) -> int:
        return _translate(bits, self.moves[v])

    def translates_bits(self, bits: int) -> list[int]:
        """bits + x over the indices x, grown one coordinate at a time like
        the tables above: bits + x + d*p is bits + x moved by trit d at p."""
        out = [bits]
        for p in self.powers:
            steps = self.moves[p] + self.moves[2 * p]
            out += [(t & up) << a | (t & down) >> b for up, a, down, b in steps for t in out]
        return out

    def neg_set_bits(self, bits: int) -> int:
        for p, (s0, s1, s2) in zip(self.powers, self.slabs):
            bits = bits & s0 | (bits & s1) << p | (bits & s2) >> p
        return bits

    def sumset_bits(self, a: int, b: int, stop: int = 0) -> int:
        """Bitset of a + b, the translates of the larger side by the smaller.

        With k = n // 2 and L = 3^k, the members of the smaller side that
        share their last n - k trits fill one block of L bits.  Each
        distinct low part j (the first k trits) translates the larger side
        once, moving only the first k coordinates, and the translate is
        kept for every later block.  A block ORs its members' low
        translates and moves that union once by its high part, so no
        coordinate shift is made that the per-member loop would not make.
        The union only grows, so the walk stops once it is the whole space,
        or once it meets the stop mask.  A result that misses stop is
        therefore all of a + b; one that meets it is a subset of a + b that
        already meets it.  With no mask the result is always all of a + b.
        """
        if a.bit_count() > b.bit_count():
            a, b = b, a
        moves, full = self.moves, self.full_bits
        size = self._block
        mask = (1 << size) - 1
        low = [0] * size  # b + j, once built; b is nonempty when a is
        out = 0
        high = 0  # the block's first index: its low trits are 0
        while a:
            block = a & mask
            if block:
                union = 0
                while block:
                    bit = block & -block
                    block ^= bit
                    j = bit.bit_length() - 1
                    t = low[j]
                    if not t:
                        t = low[j] = _translate(b, moves[j])
                    union |= t
                out |= _translate(union, moves[high])
                if out & stop or out == full:
                    break
            a >>= size
            high += size
        return out

    def difference_set_bits(self, a: int, b: int) -> int:
        return self.sumset_bits(a, self.neg_set_bits(b))

    def span_bits(self, generators: Iterable[int], base: int = 0) -> int:
        """Bitset of the coset base + span(generators).

        A generator already in the span is skipped, so at most n of them
        triple the span, however many are given.
        """
        bits = 1
        for g in generators:
            if not bits >> g & 1:
                bits = _grow(bits, self.moves[g])
        return _translate(bits, self.moves[base]) if base else bits

    def span_members_bits(self, bits: int) -> tuple[int, list[int]]:
        """(span, generators): the linear span of the members of a bitset,
        and the members it was grown from.

        Each step adds the least member outside the span so far, and the
        members the span then holds are dropped, so at most n steps are
        made however many members there are.
        """
        span = 1
        generators = []
        rest = bits & ~1
        while rest:
            g = (rest & -rest).bit_length() - 1
            generators.append(g)
            span = _grow(span, self.moves[g])
            rest &= ~span
        return span, generators


@functools.lru_cache(maxsize=None)
def space(n: int) -> Space:
    return Space(n)
