"""Halves: balanced selections of coset pairs inside an affine subspace.

Given nested nonempty affine subspaces U within H, the translates of U
partition H.  Besides U itself they come in pairs {C, (-U)+(-C)}, and a
half is a union of translates picking exactly one member of each pair.
Any half W therefore satisfies |W| = (|H| - |U|)/2 and splits H into the
disjoint union of U, W and (-U)+(-W).  _pair_halves lists the halves as
bitsets from the translate pairs, read by check_half_fact and the
primitive stream; enumerate_halves wraps them in TernarySets.
"""

from __future__ import annotations

from . import space as _sp
from .core import TernarySet
from .subspaces import AffineSubspace, enumerate_affine_subspaces

# _pair_halves materializes 2^pairs bitsets; keep that sane.
_MAX_PAIRS = 20


def _check_nested(h: AffineSubspace, u: AffineSubspace) -> _sp.Space:
    if h.empty or u.empty:
        raise ValueError("H and U must be nonempty affine subspaces")
    if h.dim_ambient != u.dim_ambient:
        raise ValueError("H and U live in different ambient spaces")
    if not h.contains_subspace(u):
        raise ValueError("U must be an affine subspace of H")
    return _sp.space(h.dim_ambient)


def coset_pairs(h: AffineSubspace, u: AffineSubspace) -> list[tuple[int, int]]:
    """The translate pairs of U within H, as (bitset, bitset) tuples.

    Pairs are ordered by their least member index; within a pair the
    translate containing that least member comes first.  The fixed
    translate U itself is not part of any pair.
    """
    sp = _check_nested(h, u)
    direction = u.direction().members_bits
    neg_base = sp.neg[u.base_point]
    rest = h.members_bits & ~u.members_bits
    pairs = []
    while rest:
        x = (rest & -rest).bit_length() - 1
        coset = sp.translate_bits(direction, x)
        partner = sp.translate_bits(sp.neg_set_bits(coset), neg_base)
        if partner == coset or (coset | partner) & ~rest:
            raise AssertionError("translate pairing degenerated")
        pairs.append((coset, partner))
        rest &= ~(coset | partner)
    return pairs


def is_half(w: TernarySet, h: AffineSubspace, u: AffineSubspace) -> bool:
    sp = _check_nested(h, u)
    if w.dim != h.dim_ambient:
        raise ValueError("W lives in a different ambient space")
    bits = w.bits
    u_bits = u.members_bits
    neg_base = sp.neg[u.base_point]
    # W + D = W for U's direction D = U - b, over the members D's span is
    # grown from (no chart of U); then the mirror (-U) + (-W) = -b - (W + D)
    # is the one translate -b - W
    _, gens = sp.span_members_bits(sp.translate_bits(u_bits, neg_base))
    if any(sp.translate_bits(bits, g) != bits for g in gens):
        return False
    mirrored = sp.translate_bits(sp.neg_set_bits(bits), neg_base)
    if u_bits & bits or u_bits & mirrored or bits & mirrored:
        return False
    return (u_bits | bits | mirrored) == h.members_bits


def _pair_halves(pairs: list[tuple[int, int]]) -> list[int]:
    """The halves picking one member of each translate pair: the list
    doubles once per pair, with the pair's second member in the upper half,
    so half k takes the second member of pair t when bit t of k is set."""
    if len(pairs) > _MAX_PAIRS:
        raise ValueError(f"{len(pairs)} translate pairs exceed the enumeration cap")
    out = [0]
    for first, second in pairs:
        out = [b | first for b in out] + [b | second for b in out]
    return out


def enumerate_halves(h: AffineSubspace, u: AffineSubspace) -> list[TernarySet]:
    """All (H,U)-halves: the k-th takes, for each translate pair in
    coset_pairs order, the second member exactly when bit i of k is set.
    The count is 2^pairs; U = H yields the single empty half."""
    n = h.dim_ambient
    return [TernarySet(n, b) for b in _pair_halves(coset_pairs(h, u))]


def check_half_fact(h: AffineSubspace, u: AffineSubspace) -> bool:
    """Whether every (H,U)-half contains an affine subspace of dim(U)+1.

    Requires at least two translate-pair dimensions (dim H - dim U >= 2)
    and 0 outside H; anything else raises.
    """
    _check_nested(h, u)
    if h.dim - u.dim < 2:
        raise ValueError("need dim(H) - dim(U) >= 2")
    if 0 in h:
        raise ValueError("H must avoid the origin")
    inner = [s.members_bits for s in enumerate_affine_subspaces(h, u.dim + 1)]
    for bits in _pair_halves(coset_pairs(h, u)):
        if not any(bits & s == s for s in inner):
            return False
    return True
