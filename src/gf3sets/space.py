"""Index arithmetic for F_3^n with a little-endian base-3 vector encoding.

A vector (t_0, ..., t_{n-1}) with trits t_i in {0, 1, 2} is stored as the
integer index sum(t_i * 3**i).  Subsets of F_3^n are plain Python integers
used as bitsets: bit i is set iff the vector with index i is a member.

Set operations are bit-sliced.  For each coordinate i a Space keeps three
digit slabs: slabs[i][d] is the mask of the indices whose trit i is d.
Adding c to trit i carries slab d onto slab (d + c) mod 3, which is a shift
of the masked bits by a multiple of 3**i.  So translating a set by a vector
is, coordinate by coordinate, a masked pair of big-integer shifts, and
negation swaps slabs 1 and 2; either costs O(n) big-integer operations
whatever the size of the set.  A sumset is the union of the translates of
the larger set by the members of the smaller.  Scalar addition keeps a full
table for small spaces (n <= 6).
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

MAX_DIM = 12

# full pairwise addition tables are kept up to this many points (n <= 6)
_FULL_TABLE_MAX_SIZE = 729


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


def _repeat(pattern: int, period: int, size: int) -> int:
    """pattern (period bits wide) repeated to fill size bits, by doubling."""
    while period < size:
        pattern |= pattern << period
        period *= 2
    return pattern & ((1 << size) - 1)


def _translate(bits: int, trits: tuple[int, ...], shifts) -> int:
    """bits + v for the vector v with the given trits (see Space._shifts)."""
    for t, (p, s0, s01, s2, s12) in zip(trits, shifts):
        if t == 1:
            bits = (bits & s01) << p | (bits & s2) >> 2 * p
        elif t == 2:
            bits = (bits & s0) << 2 * p | (bits & s12) >> p
    return bits


class Space:
    """Cached lookup tables and raw bitset operations for one dimension."""

    def __init__(self, n: int):
        check_dim(n)
        self.n = n
        self.size = 3**n
        self.full_bits = (1 << self.size) - 1
        self.powers = tuple(3**i for i in range(n))
        # Each table grows one coordinate at a time: with p = 3^i, the
        # indices x + d*p for d = 0, 1, 2 follow the indices x of the first
        # i coordinates, and their entries follow those of x.
        trits: list[tuple[int, ...]] = [()]
        neg = [0]
        add_rows = [[0]] if self.size <= _FULL_TABLE_MAX_SIZE else None
        for p in self.powers:
            trits = [t + (d,) for d in range(3) for t in trits]
            neg = [x + (-d % 3) * p for d in range(3) for x in neg]
            if add_rows is not None:
                add_rows = [
                    [x + (d + e) % 3 * p for e in range(3) for x in row]
                    for d in range(3)
                    for row in add_rows
                ]
        self.trits = trits
        self.neg = neg
        self.add_rows: list[list[int]] | None = add_rows
        self.slabs = tuple(
            tuple(_repeat(((1 << p) - 1) << (d * p), 3 * p, self.size) for d in range(3))
            for p in self.powers
        )
        # per coordinate: (3^i, slab 0, slabs 0|1, slab 2, slabs 1|2)
        self._shifts = tuple(
            (p, s0, s0 | s1, s2, s1 | s2)
            for p, (s0, s1, s2) in zip(self.powers, self.slabs)
        )

    # -- scalar index arithmetic ------------------------------------------

    def add(self, i: int, j: int) -> int:
        if self.add_rows is not None:
            return self.add_rows[i][j]
        return encode((a + b) % 3 for a, b in zip(self.trits[i], self.trits[j]))

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg[j])

    def scale(self, i: int, c: int) -> int:
        c %= 3
        if c == 0:
            return 0
        if c == 1:
            return i
        return self.neg[i]

    # -- bitset operations -------------------------------------------------

    def translate_bits(self, bits: int, v: int) -> int:
        return _translate(bits, self.trits[v], self._shifts)

    def neg_set_bits(self, bits: int) -> int:
        for p, (s0, s1, s2) in zip(self.powers, self.slabs):
            bits = bits & s0 | (bits & s1) << p | (bits & s2) >> p
        return bits

    def sumset_bits(self, a: int, b: int) -> int:
        if a.bit_count() > b.bit_count():
            a, b = b, a
        trits, shifts = self.trits, self._shifts
        out = 0
        for v in iter_bits(a):
            out |= _translate(b, trits[v], shifts)
        return out

    def difference_set_bits(self, a: int, b: int) -> int:
        return self.sumset_bits(a, self.neg_set_bits(b))

    def span_bits(self, generators: Iterable[int], base: int = 0) -> int:
        """Bitset of the coset base + span(generators)."""
        bits = 1 << base
        for g in generators:
            if g == 0:
                continue
            trits = self.trits[g]
            shifted = _translate(bits, trits, self._shifts)
            bits |= shifted | _translate(shifted, trits, self._shifts)
        return bits


@functools.lru_cache(maxsize=None)
def space(n: int) -> Space:
    return Space(n)
