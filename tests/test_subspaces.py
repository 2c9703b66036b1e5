"""Affine geometry against the oracle's closure computations."""

import dataclasses
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gf3sets import space as _sp
from gf3sets import subspaces as sub
from gf3sets.primitive import cone_of_subspace
from gf3sets.space import iter_bits


def _members(s):
    return set(iter_bits(s.members_bits))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_linear_spans_match_oracle(n):
    rng = random.Random(n)
    for _ in range(40):
        k = rng.randrange(0, n + 1)
        rows = [rng.randrange(1, 3**n) for _ in range(k)]
        got = sub.linear_subspace(n, rows)
        want = oracles.span([oracles.to_trits(r, n) for r in rows], n)
        assert _members(got) == {oracles.to_index(v) for v in want}
        assert got.is_linear
        assert got.size == 3**got.dim


@pytest.mark.parametrize("n", [2, 3])
def test_affine_hull_matches_oracle(n):
    rng = random.Random(5 + n)
    for _ in range(60):
        bits = rng.getrandbits(3**n)
        hull = sub.affine_hull_bits(bits, n)
        pts = [oracles.to_trits(i, n) for i in iter_bits(bits)]
        want = oracles.affine_hull(pts, n)
        assert _members(hull) == {oracles.to_index(v) for v in want}
    assert sub.affine_hull_bits(0, n).empty


def _hull_by_members(bits, n):
    """The reference hull: the least member plus a span taken over every
    member of the differences to it, one generator each."""
    sp = _sp.space(n)
    base = (bits & -bits).bit_length() - 1
    return sp.span_bits(iter_bits(sp.translate_bits(bits, sp.neg[base])), base)


# Random sets of F_3^n almost always span the whole space, so these are
# random subsets of a random affine flat, whose hull is usually that flat
# or a smaller one inside it.
@st.composite
def flat_subsets(draw):
    n = draw(st.integers(1, 6))
    sp = _sp.space(n)
    idx = st.integers(0, sp.size - 1)
    flat = sp.span_bits(draw(st.lists(idx, max_size=n)), draw(idx))
    bits = 1 << draw(st.sampled_from(list(iter_bits(flat))))
    for mask in draw(st.lists(st.integers(0, sp.full_bits), max_size=3)):
        bits |= flat & mask
    return n, flat, bits


@settings(max_examples=200, deadline=None)
@given(flat_subsets())
def test_affine_hull_of_subsets_of_flats(case):
    n, flat, bits = case
    hull = sub.affine_hull_bits(bits, n)
    assert bits & ~hull.members_bits == 0 and hull.members_bits & ~flat == 0
    assert hull.members_bits == _hull_by_members(bits, n)
    sp = _sp.space(n)
    least = (bits & -bits).bit_length() - 1
    span, generators = sp.span_members_bits(sp.translate_bits(bits, sp.neg[least]))
    assert span == hull.direction().members_bits
    assert len(generators) == hull.dim <= n
    if n <= 4:
        pts = [oracles.to_trits(i, n) for i in iter_bits(bits)]
        assert _members(hull) == {oracles.to_index(v) for v in oracles.affine_hull(pts, n)}


def test_canonical_representation_is_stable():
    # same plane described by different generators and base points
    a = sub.affine_subspace(3, (1, 3), 9)  # e2 + span(e0, e1)
    b = sub.affine_subspace(3, (4, 3), 13)  # (1,1,1) + span(e0+e1, e1)
    assert a == b
    assert _members(a) == _members(b)
    c = sub.subspace_from_member_bits(a.members_bits, 3)
    assert a == c
    e = sub.affine_subspace(3, (1, 3), 10)  # base shifted inside the direction
    assert e == a
    d = sub.affine_subspace(3, (1, 3), 18)  # a genuinely parallel plane
    assert d != a and _members(d) != _members(a)


def _oracle_form(n, rows, point):
    """(RREF basis, least member, members) of point + span(rows), by the oracle."""
    basis = oracles.rref([oracles.to_trits(r, n) for r in rows], n)
    members = set()
    for coeffs in product(range(3), repeat=len(basis)):
        x = oracles.to_trits(point, n)
        for c, b in zip(coeffs, basis):
            for _ in range(c):
                x = oracles.add(x, b)
        members.add(oracles.to_index(x))
    return tuple(oracles.to_index(b) for b in basis), min(members), members


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canonical_form_matches_oracle_rref(data):
    n = data.draw(st.integers(1, 5))
    idx = st.integers(0, 3**n - 1)
    rows = data.draw(st.lists(idx, max_size=n + 2))
    point = data.draw(idx)
    basis, least, members = _oracle_form(n, rows, point)
    got = sub.affine_subspace(n, rows, point)
    assert (got.basis, got.base_point) == (basis, least)
    assert _members(got) == members
    assert sub.subspace_from_member_bits(got.members_bits, n) == got

    pts = data.draw(st.lists(idx, min_size=1, max_size=6))
    diffs = [
        oracles.to_index(oracles.sub(oracles.to_trits(p, n), oracles.to_trits(pts[0], n)))
        for p in pts
    ]
    basis, least, members = _oracle_form(n, diffs, pts[0])
    hull = sub.affine_hull_bits(sum(1 << p for p in set(pts)), n)
    assert (hull.basis, hull.base_point) == (basis, least)
    assert _members(hull) == members


def test_membership_and_containment():
    h = sub.hyperplane_from_normal(3, 1, 1)  # {x : x_0 = 1}
    assert 1 in h and 4 in h and 0 not in h and 2 not in h
    line = sub.affine_subspace(3, (3,), 1)
    assert h.contains_subspace(line)
    assert not line.contains_subspace(h)
    assert h.contains_subspace(sub.empty_subspace(3))
    assert sub.full_space(3).contains_subspace(h)


def test_direction_translate_neg():
    h = sub.hyperplane_from_normal(3, 1, 2)
    d = h.direction()
    assert d.is_linear and d.dim == h.dim
    assert _members(h.neg()) == {
        oracles.to_index(oracles.neg(oracles.to_trits(i, 3))) for i in _members(h)
    }
    t = h.translate(1)
    sp = _sp.space(3)
    assert _members(t) == {sp.add(i, 1) for i in _members(h)}


def test_hyperplane_from_normal_and_enumeration():
    for n in (1, 2, 3):
        planes = sub.enumerate_hyperplanes(n)
        # each parallel class contributes 3 translates
        assert len(planes) == 3 * (3**n - 1) // 2
        avoiding = sub.enumerate_hyperplanes(n, avoid_origin=True)
        assert len(avoiding) == 3**n - 1
        assert all(0 not in h for h in avoiding)
        assert len({h.members_bits for h in planes}) == len(planes)
        for h in planes:
            assert h.dim == n - 1
    with pytest.raises(ValueError):
        sub.hyperplane_from_normal(3, 0, 1)


def test_hyperplane_members_match_dot_product():
    for n in (1, 2, 3):
        for index in range(1, 3**n):
            normal = oracles.to_trits(index, n)
            for label in range(3):
                h = sub.hyperplane_from_normal(n, index, label)
                want = {
                    oracles.to_index(v)
                    for v in oracles.all_vectors(n)
                    if sum(a * b for a, b in zip(v, normal)) % 3 == label
                }
                assert _members(h) == want
                assert h.base_point == min(want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_levels_partition_the_space(n):
    sp = _sp.space(n)
    for normal in range(1, sp.size):
        levels = sub._levels(sp, normal)
        assert levels[0] | levels[1] | levels[2] == sp.full_bits
        assert sum(lv.bit_count() for lv in levels) == sp.size
        for c in range(3):
            assert sub.hyperplane_from_normal(n, normal, c).members_bits == levels[c]


def test_gaussian_binomial_and_rref_bases():
    assert oracles.gaussian_binomial(4, 1) == 40
    assert oracles.gaussian_binomial(4, 2) == 130
    assert oracles.gaussian_binomial(3, 1) == 13
    assert oracles.gaussian_binomial(3, 3) == 1
    for n, k in ((2, 1), (3, 1), (3, 2), (4, 2)):
        bases = list(sub.enumerate_rref_bases(n, k))
        assert len(bases) == oracles.gaussian_binomial(n, k)
        spans = {sub.linear_subspace(n, rows).members_bits for rows in bases}
        assert len(spans) == len(bases)
        for rows in bases:
            # each row's pivot is its first nonzero trit: it is 1, and every
            # other row has trit 0 there
            trits = [_sp.decode(r, n) for r in rows]
            pivots = [next(p for p, t in enumerate(row) if t) for row in trits]
            assert pivots == sorted(set(pivots))
            for row, p in zip(trits, pivots):
                assert row[p] == 1
                assert all(row[q] == 0 for q in pivots if q != p)
    for n in range(4):
        assert list(sub.enumerate_rref_bases(n, 0)) == [()]


def test_enumerate_affine_subspaces_counts():
    full = sub.full_space(3)
    lines = sub.enumerate_affine_subspaces(full, 1)
    assert len(lines) == 13 * 9  # direction classes times translates
    planes = sub.enumerate_affine_subspaces(full, 2)
    assert len(planes) == 13 * 3
    h = sub.hyperplane_from_normal(3, 1, 1)
    inner = sub.enumerate_affine_subspaces(h, 1)
    assert len(inner) == 4 * 3
    assert all(h.contains_subspace(e) for e in inner)
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            flats = sub.enumerate_affine_subspaces(sub.full_space(n), k)
            assert len(flats) == oracles.gaussian_binomial(n, k) * 3 ** (n - k)
            assert sub._flat_count(n, k) == len(flats)
        assert sub.enumerate_affine_subspaces(sub.full_space(n), n + 1) == ()
        assert sub.enumerate_affine_subspaces(sub.empty_subspace(n), 0) == ()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_affine_subspaces_match_oracle(n):
    sp = _sp.space(n)
    for h in (sub.full_space(n),) + sub.enumerate_hyperplanes(n):
        pts = [oracles.to_trits(i, n) for i in sorted(_members(h))]
        for k in range(h.dim + 1):
            flats = sub.enumerate_affine_subspaces(h, k)
            assert [(e.basis, e.base_point) for e in flats] == sorted(
                (e.basis, e.base_point) for e in flats
            )
            for e in flats:
                assert e.dim == k and h.contains_subspace(e)
                assert e.members_bits == sp.span_bits(e.basis, e.base_point)
                assert e.base_point == min(_members(e))
            want = {
                frozenset(oracles.to_index(v) for v in f)
                for f in oracles.affine_flats(pts, n, k)
            }
            assert len(flats) == len(want)
            assert {frozenset(_members(e)) for e in flats} == want


def test_flat_tables_are_cached():
    h = sub.hyperplane_from_normal(3, 1, 1)
    first = sub.enumerate_affine_subspaces(h, 1)
    assert isinstance(first, tuple)
    assert sub.enumerate_affine_subspaces(h, 1) is first
    # an equal subspace built another way hits the same entry
    again = sub.subspace_from_member_bits(h.members_bits, 3)
    assert sub.enumerate_affine_subspaces(again, 1) is first


def test_chart_round_trip():
    v = sub.linear_subspace(3, (1, 3))
    for i in range(9):
        idx = sub.chart_decode(v, i)
        assert idx in v
        assert sub.chart_encode(v, idx) == i
    seen = {sub.chart_decode(v, i) for i in range(9)}
    assert seen == _members(v)


def test_hyperplanes_within():
    plane = sub.linear_subspace(3, (1, 3))
    inside = oracles.hyperplanes_within(plane)
    assert all(plane.contains_subspace(j) and j.dim == plane.dim - 1 for j in inside)
    assert len(inside) == 12
    off = oracles.hyperplanes_within(plane, avoid_origin=True)
    assert len(off) == 8
    assert all(0 not in j for j in off)
    # nothing to cover: every origin-avoiding hyperplane, in chart order
    assert list(sub.hyperplanes_covering(plane, 0)) == off
    cube = sub.full_space(2)
    assert len(oracles.hyperplanes_within(cube)) == 12
    assert len(oracles.hyperplanes_within(cube, avoid_origin=True)) == 8
    with pytest.raises(ValueError):
        list(sub.hyperplanes_covering(sub.hyperplane_from_normal(3, 1, 1), 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("ao", [False, True])
def test_full_space_hyperplanes_match_the_chart_path(n, ao):
    full = sub.full_space(n)
    sp = _sp.space(n)
    charted = [
        sub.affine_subspace(
            n,
            [sub.chart_decode(full, b) for b in h.basis],
            sub.chart_decode(full, h.base_point),
        )
        for h in sub.enumerate_hyperplanes(n, ao)
    ]
    got = oracles.hyperplanes_within(full, ao)
    assert got == list(sub.enumerate_hyperplanes(n, ao)) == charted
    if ao:  # the full space's chart shortcut in hyperplanes_covering
        assert list(sub.hyperplanes_covering(full, 0)) == got
    assert [h.members_bits for h in got] == [
        sp.span_bits(h.basis, h.base_point) for h in charted
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hyperplanes_covering_filters_hyperplanes_within(n):
    rng = random.Random(100 + n)
    sp = _sp.space(n)
    spaces = [sub.full_space(n)]
    for _ in range(6):
        rows = [rng.randrange(1, sp.size) for _ in range(rng.randint(1, n))]
        spaces.append(sub.linear_subspace(n, rows))
    for v in spaces:
        if v.dim < 1:
            continue
        pts = sorted(_members(v))
        planes = oracles.hyperplanes_within(v, avoid_origin=True)
        for k in (0, 1, 2, len(pts) // 3, len(pts) - 1):
            bits = sum(1 << p for p in rng.sample(pts[1:], min(k, len(pts) - 1)))
            want = [
                h for h in planes
                if not bits & ~(h.members_bits | sp.neg_set_bits(h.members_bits))
            ]
            assert list(sub.hyperplanes_covering(v, bits)) == want
    with pytest.raises(ValueError):
        next(sub.hyperplanes_covering(sub.hyperplane_from_normal(3, 1, 1), 0))


def test_to_json_shape():
    h = sub.affine_subspace(3, (3,), 1)
    j = h.to_json()
    assert j == {"basis": [[0, 1, 0]], "base_point": [1, 0, 0]}


def test_a_subspace_is_its_member_bitset():
    fields = [f.name for f in dataclasses.fields(sub.AffineSubspace)]
    assert fields == ["dim_ambient", "members_bits"]
    e = sub.empty_subspace(3)
    assert e == sub.affine_hull_bits(0, 3) == e.translate(5) == e.neg()
    assert (e.empty, e.dim, e.size, e.basis, e.base_point) == (True, -1, 0, (), 0)
    with pytest.raises(ValueError):
        e.direction()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_equal_exactly_when_the_member_bitsets_are(data):
    n = data.draw(st.integers(1, 5))
    sp = _sp.space(n)
    idx = st.integers(0, sp.size - 1)
    rows = data.draw(st.lists(idx, max_size=n))
    point = data.draw(idx)
    s = sub.affine_subspace(n, rows, point)
    # the same coset from redundant, scaled and summed rows and another member
    trits = [oracles.to_trits(r, n) for r in rows]
    extra = [oracles.neg(t) for t in trits] + [
        oracles.add(a, b) for a, b in zip(trits, trits[1:])
    ]
    redundant = data.draw(st.permutations(rows + [oracles.to_index(t) for t in extra]))
    member = data.draw(st.sampled_from(sorted(iter_bits(s.members_bits))))
    v = data.draw(idx)
    same = [
        sub.affine_subspace(n, redundant, member),
        sub.affine_hull_bits(s.members_bits, n),
        s.translate(v).translate(sp.neg[v]),
        s.neg().neg(),
        sub.affine_subspace(n, rows, 0).translate(member),
        s.direction().translate(point),
    ]
    assert all(t == s and hash(t) == hash(s) for t in same)
    assert len({s, *same}) == 1
    others = [
        sub.affine_subspace(n, data.draw(st.lists(idx, max_size=n)), data.draw(idx)),
        sub.affine_hull_bits(data.draw(st.integers(0, sp.full_bits)), n),
        s.translate(v),
        s.neg(),
        s.direction(),
    ]
    for t in others:
        assert (t == s) == (t.members_bits == s.members_bits)
        if not t.empty:  # the empty subspace writes the JSON of {0}
            assert (t == s) == (t.to_json() == s.to_json())
        if t == s:
            assert hash(t) == hash(s)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cone_of_subspace_is_the_span_of_the_members(data):
    n = data.draw(st.integers(1, 5))
    idx = st.integers(0, 3**n - 1)
    u = sub.affine_subspace(n, data.draw(st.lists(idx, max_size=3)), data.draw(idx))
    want = oracles.span([oracles.to_trits(m, n) for m in _members(u)], n)
    assert _members(cone_of_subspace(u)) == {oracles.to_index(x) for x in want}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_chart_decode_sums_the_scaled_rref_rows(data):
    n = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.integers(1, 3**n - 1), max_size=n))
    v = sub.linear_subspace(n, rows)
    basis = oracles.rref([oracles.to_trits(r, n) for r in rows], n)
    for i in range(3 ** len(basis)):
        want = (0,) * n
        for lam, b in zip(oracles.to_trits(i, len(basis)), basis):
            for _ in range(lam):
                want = oracles.add(want, b)
        assert sub.chart_decode(v, i) == oracles.to_index(want)
        assert sub.chart_encode(v, oracles.to_index(want)) == i


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_flats_within_match_a_plain_scan(n):
    rng = random.Random(n)
    full = sub.full_space(n)
    sets = [0, full.members_bits]
    for _ in range(12):
        # a few random flats and a few random points, so most k find some
        bits = 0
        for _ in range(rng.randrange(1, 4)):
            k = rng.randrange(0, n + 1)
            bits |= rng.choice(sub.enumerate_affine_subspaces(full, k)).members_bits
        for _ in range(rng.randrange(0, 3**n // 3 + 1)):
            bits |= 1 << rng.randrange(3**n)
        sets.append(bits)
    for k in range(-1, n + 2):
        flats = sub.enumerate_affine_subspaces(full, k)
        for bits in sets:
            want = [e for e in flats if e.members_bits & ~bits == 0]
            assert sub.flats_within(bits, n, k) == want
    assert sub.flats_within(full.members_bits, n, n + 1) == []
