"""Seeded input stream for the classify_stream workload.

The sets are built with the benchmark's own F_3^n arithmetic, so a change
to the library cannot change its inputs.  The one input taken from the
library, lev_construction(n), is pinned by digest in LEV_DIGESTS.
"""

from __future__ import annotations

import hashlib
import random

DIMS = (4, 5, 6)

# sets of each kind per dimension; kinds and their labels are in make_stream
PER_DIM = {4: 12, 5: 10, 6: 6}

LEV_DIGESTS = {4: "e875c71663c1e157", 5: "2cc064c229d272d2", 6: "273791dea657f8ed"}


def _decode(i: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(i % 3)
        i //= 3
    return out


def _encode(trits) -> int:
    i = 0
    for t in reversed(trits):
        i = 3 * i + t
    return i


class F3:
    """Arithmetic of F_3^n on point indices, independent of the library."""

    def __init__(self, n: int):
        self.n = n
        self.size = 3**n
        self.trits = [_decode(i, n) for i in range(self.size)]

    def add(self, i: int, j: int) -> int:
        return _encode([(a + b) % 3 for a, b in zip(self.trits[i], self.trits[j])])

    def neg(self, i: int) -> int:
        return _encode([(3 - t) % 3 for t in self.trits[i]])

    def members(self, bits: int) -> list[int]:
        return [i for i in range(self.size) if bits >> i & 1]

    def sumset(self, bits: int) -> int:
        pts = self.members(bits)
        out = 0
        for a in pts:
            for b in pts:
                out |= 1 << self.add(a, b)
        return out

    def random_gl(self, rng: random.Random) -> list[int]:
        """Images of the basis vectors under a uniform invertible map."""
        while True:
            imgs = [rng.randrange(1, self.size) for _ in range(self.n)]
            span = {0}
            for v in imgs:
                span |= {self.add(s, w) for s in span for w in (v, self.neg(v))}
            if len(span) == self.size:
                return imgs

    def apply(self, imgs: list[int], bits: int) -> int:
        out = 0
        for i in self.members(bits):
            img = 0
            for t, v in zip(self.trits[i], imgs):
                if t:
                    img = self.add(img, v if t == 1 else self.neg(v))
            out |= 1 << img
        return out

    def hyperplane(self, rng: random.Random) -> int:
        """{x : <c, x> = 1} for a random nonzero normal c; avoids the origin."""
        c = self.trits[rng.randrange(1, self.size)]
        bits = 0
        for i, row in enumerate(self.trits):
            if sum(a * b for a, b in zip(c, row)) % 3 == 1:
                bits |= 1 << i
        return bits

    def greedy_maximal(self, rng: random.Random) -> int:
        """A maximal sum-free set grown from a random order of the points."""
        order = list(range(1, self.size))
        rng.shuffle(order)
        bits = 0
        pts: list[int] = []
        blocked = 1  # a | (a+a) | (a-a) | (-a) | {0}
        for v in order:
            if blocked >> v & 1:
                continue
            nv = self.neg(v)
            blocked |= 1 << v | 1 << nv | 1 << self.add(v, v)
            for a in pts:
                blocked |= (1 << self.add(v, a) | 1 << self.add(v, self.neg(a))
                            | 1 << self.add(a, nv))
            pts.append(v)
            bits |= 1 << v
        return bits


def make_stream(seed: int, lev_bits: dict) -> list[tuple[int, str, int]]:
    """[(dim, kind, bits)] in a seeded order; lev_bits maps n to lev(n)."""
    rng = random.Random(f"classify_stream/{seed}")
    out = []
    for n in DIMS:
        f3 = F3(n)
        for _ in range(PER_DIM[n]):
            lev = f3.apply(f3.random_gl(rng), lev_bits[n])
            out.append((n, "lev", lev))
            out.append((n, "hyperplane", f3.hyperplane(rng)))
            pts = f3.members(lev)
            out.append((n, "lev_minus_point", lev & ~(1 << rng.choice(pts))))
            out.append((n, "greedy", f3.greedy_maximal(rng)))
            sums = f3.members(f3.sumset(lev) & ~lev)
            out.append((n, "not_sum_free", lev | 1 << rng.choice(sums)))
    rng.shuffle(out)
    return out


def digest(items) -> str:
    h = hashlib.sha256()
    for n, kind, bits in items:
        h.update(f"{n}:{kind}:{bits:x};".encode())
    return h.hexdigest()[:16]
