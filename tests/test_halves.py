"""Translate-pair halves of a punctured hyperplane."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gf3sets import TernarySet
from gf3sets import halves as hv
from gf3sets import subspaces as sub
from gf3sets.space import iter_bits, space


def _h_u(n):
    h = sub.hyperplane_from_normal(n, 1, 1)  # {x : x_0 = 1}
    u = sub.affine_subspace(n, (), 1)  # the single point e_0
    return h, u


def test_point_half_in_the_plane():
    h, u = _h_u(2)
    assert hv.is_half(TernarySet.from_indices(2, [4]), h, u)
    assert hv.is_half(TernarySet.from_indices(2, [7]), h, u)
    assert not hv.is_half(TernarySet.from_indices(2, [4, 7]), h, u)
    assert not hv.is_half(TernarySet.empty(2), h, u)
    assert len(hv.enumerate_halves(h, u)) == 2


def test_sixteen_halves_in_the_cube():
    h, u = _h_u(3)
    out = hv.enumerate_halves(h, u)
    assert len(out) == 16
    assert len({w.bits for w in out}) == 16
    for w in out:
        assert hv.is_half(w, h, u)
        assert w.size == 4
        # W, -W and U partition H
        sp = space(3)
        mirror = sp.sumset_bits(sp.neg_set_bits(u.members_bits),
                                sp.neg_set_bits(w.bits))
        assert w.bits & mirror == 0
        assert (w.bits | mirror | u.members_bits) == h.members_bits


def test_half_violations():
    h, u = _h_u(3)
    good = hv.enumerate_halves(h, u)[0]
    # dropping a point leaves a translate pair unrepresented
    short = TernarySet(3, good.bits & (good.bits - 1))
    assert not hv.is_half(short, h, u)
    # W together with its own mirror covers pairs twice
    sp = space(3)
    mirror = sp.sumset_bits(sp.neg_set_bits(u.members_bits),
                            sp.neg_set_bits(good.bits))
    assert not hv.is_half(TernarySet(3, good.bits | mirror), h, u)
    # a set containing U itself cannot be a half
    assert not hv.is_half(TernarySet(3, good.bits | u.members_bits), h, u)
    with pytest.raises(ValueError):
        hv.is_half(TernarySet.empty(2), h, u)


def test_line_core_halves():
    # U a line inside a 3-flat: pairs group whole translates of U
    h = sub.hyperplane_from_normal(4, 1, 1)
    u = sub.affine_subspace(4, (3,), 1)
    pairs = hv.coset_pairs(h, u)
    assert len(pairs) == 4
    out = hv.enumerate_halves(h, u)
    assert len(out) == 16
    for w in out:
        assert w.size == 12
        assert hv.is_half(w, h, u)
        # halves are unions of U-translates, so U's direction stabilizes them
        sp = space(4)
        assert sp.translate_bits(w.bits, 3) == w.bits
    # is_half tests W + D = W over members of D, with no RREF chart of U
    assert "_chart" not in vars(u)


def test_check_half_fact_small():
    h, u = _h_u(3)
    assert hv.check_half_fact(h, u)


def test_check_half_fact_8192():
    h, u = _h_u(4)
    assert len(hv.coset_pairs(h, u)) == 13
    assert hv.check_half_fact(h, u)


def test_check_half_fact_guards():
    h, u = _h_u(2)
    with pytest.raises(ValueError):
        hv.check_half_fact(h, u)  # dim gap is only 1
    plane = sub.linear_subspace(3, (1, 3))
    point = sub.affine_subspace(3, (), 1)
    with pytest.raises(ValueError):
        hv.check_half_fact(plane, point)  # H through the origin


def test_u_equal_h_yields_single_empty_half():
    h, _ = _h_u(2)
    out = hv.enumerate_halves(h, h)
    assert len(out) == 1 and out[0].size == 0


def _vecs(bits, n):
    return {oracles.to_trits(i, n) for i in iter_bits(bits)}


def _half_by_definition(w, h, u, n):
    """W is a union of translates of U's direction D, and U, W and the
    mirror (-U) + (-W) partition H, with the sumsets taken by the oracle."""
    vw, vu = _vecs(w, n), _vecs(u.members_bits, n)
    direction = oracles.difference_set(vu, vu)
    if oracles.sumset(vw, direction) != vw:
        return False
    mirror = oracles.sumset({oracles.neg(x) for x in vu}, {oracles.neg(x) for x in vw})
    if vu & vw or vu & mirror or vw & mirror:
        return False
    return vu | vw | mirror == _vecs(h.members_bits, n)


@st.composite
def half_cases(draw):
    """(n, H, U, W) with U inside H; W a half, a half with one point
    toggled (then not a union of U-translates unless U is a point), a
    random subset of H or of the space, or empty."""
    n = draw(st.integers(1, 3))
    hdim = draw(st.integers(0, n))
    h = draw(st.sampled_from(sub.enumerate_affine_subspaces(sub.full_space(n), hdim)))
    u = draw(st.sampled_from(sub.enumerate_affine_subspaces(h, draw(st.integers(0, hdim)))))
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["half", "toggled", "in_h", "any", "empty"]))
    w = 0
    if kind in ("half", "toggled"):
        w = rng.choice(hv.enumerate_halves(h, u)).bits
        if kind == "toggled":
            w ^= 1 << rng.randrange(3**n)
    elif kind == "in_h":
        w = h.members_bits & rng.getrandbits(3**n)
    elif kind == "any":
        w = rng.getrandbits(3**n)
    return n, h, u, w


@settings(max_examples=300, deadline=None)
@given(half_cases())
def test_is_half_matches_the_definition(case):
    n, h, u, w = case
    assert hv.is_half(TernarySet(n, w), h, u) == _half_by_definition(w, h, u, n)


@st.composite
def nested_subspaces(draw):
    """(H, U) with U inside H at n <= 4, U = H included.  H has dimension
    at most 3, so there are at most 13 translate pairs."""
    n = draw(st.integers(1, 4))
    hdim = draw(st.integers(0, min(n, 3)))
    h = draw(st.sampled_from(sub.enumerate_affine_subspaces(sub.full_space(n), hdim)))
    if draw(st.booleans()):
        return h, h
    return h, draw(st.sampled_from(sub.enumerate_affine_subspaces(h, draw(st.integers(0, hdim)))))


@settings(max_examples=100, deadline=None)
@given(nested_subspaces())
def test_half_bits_follow_the_mask_definition(case):
    h, u = case
    pairs = hv.coset_pairs(h, u)
    want = []
    for k in range(1 << len(pairs)):
        bits = 0
        for i, (first, second) in enumerate(pairs):
            bits |= second if k >> i & 1 else first
        want.append(bits)
    assert hv._half_bits(h, u) == want
    assert [w.bits for w in hv.enumerate_halves(h, u)] == want


def test_half_enumeration_is_capped():
    h = sub.full_space(4)
    u = sub.affine_subspace(4, (), 1)
    assert len(hv.coset_pairs(h, u)) == 40
    for enumerate_ in (hv._half_bits, hv.enumerate_halves):
        with pytest.raises(ValueError, match="cap"):
            enumerate_(h, u)
