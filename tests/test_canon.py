"""Linear group action, least orbit members, stabilizer counts."""

import random
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from gf3sets import TernarySet, canonical_form, gl_order, is_sum_free, stabilizer_order
from gf3sets import canon, search
from gf3sets import subspaces as sub
from gf3sets.space import decode, iter_bits, orbit_bits, space


def test_group_orders():
    assert gl_order(1) == 2
    assert gl_order(2) == 48
    assert gl_order(3) == 11232
    assert gl_order(4) == 24261120


def _reference_basis_draw(n, rng):
    """Rows of n trits, t_0 first, redrawn until the matrix is invertible."""
    while True:
        rows = [[rng.randrange(3) for _ in range(n)] for _ in range(n)]
        if oracles.is_invertible(rows, n):
            return tuple(oracles.to_index(r) for r in rows)


@pytest.mark.parametrize("n", range(7))
def test_random_basis_draws_what_random_gl_draws(n):
    for seed in range(300):
        r1, r2, r3 = (random.Random(seed) for _ in range(3))
        for _ in range(3):
            g = canon.random_gl(n, r1)
            assert canon.random_basis(n, r2) == g.imgs == _reference_basis_draw(n, r3)
            assert r1.getstate() == r2.getstate() == r3.getstate()


def test_group_element_action_matches_oracle():
    rng = random.Random(1)
    for n in (2, 3, 4):
        for _ in range(20):
            g = canon.random_gl(n, rng)
            mat = [decode(v, n) for v in g.imgs]
            for idx in range(3**n):
                want = oracles.to_index(
                    oracles.apply_matrix(mat, oracles.to_trits(idx, n))
                )
                assert g.perm[idx] == want
            bits = rng.getrandbits(3**n)
            got = g.apply_bits(bits)
            assert set(iter_bits(got)) == {g.perm[i] for i in iter_bits(bits)}


def test_invalid_group_element_rejected():
    with pytest.raises(ValueError):
        canon.GroupElement(2, (1, 2))  # e_1 image is a multiple of e_0 image


@pytest.mark.parametrize("imgs", [(9, 1), (True, 3), (1, -3), (1.0, 3), ("1", 3)])
def test_group_element_refuses_an_image_that_is_not_an_index(imgs):
    # 9 is past F_3^2, True is a bool, not an int index
    with pytest.raises(ValueError, match="not an int index"):
        canon.GroupElement(2, imgs)


def test_canonical_forms_are_refused_above_dimension_6():
    bits = 1 << 1 | 1 << 3 | 1 << 9  # e_0, e_1, e_2
    space(7)  # the slab and move tables are built; no addition table may be
    tracemalloc.start()
    try:
        t0 = time.monotonic()
        for fn in (canon.stabilizer_order_bits, canon.canonical_form_bits,
                   canon.is_lexmin_bits):
            with pytest.raises(ValueError):
                fn(bits, 7)
        elapsed = time.monotonic() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1 << 20


@pytest.mark.parametrize("fn", [canon.is_lexmin_bits, canon.canonical_form_bits,
                                canon.stabilizer_order_bits],
                         ids=["is_lexmin", "canonical_form", "stabilizer_order"])
@pytest.mark.parametrize("bits, n", [(-1, 3), (1 << 27, 3), (-3, 2), (2, 0)])
def test_walks_refuse_bits_that_are_not_a_set_of_the_space(fn, bits, n):
    # a negative int, or a bit at an index of 3^n or more, is no subset of
    # F_3^n; each is refused before anything is built
    with pytest.raises(ValueError, match="not a set"):
        fn(bits, n)


@pytest.mark.parametrize("n", [1, 2])
def test_canonicalization_matches_oracle_exhaustively(n):
    for bits in range(1 << 3**n):
        a = TernarySet(n, bits)
        got = canonical_form(a)
        stab = stabilizer_order(a)
        trits = [oracles.to_trits(i, n) for i in iter_bits(bits)]
        best, hits = oracles.orbit_min(trits, n)
        assert tuple(got.indices()) == (best or ())
        assert stab == hits if bits else stab == gl_order(n)


def test_lexmin_and_canonical_form_match_oracle_dim2_exhaustively():
    lexmin = 0
    for bits in range(1 << 9):
        trits = [oracles.to_trits(i, 2) for i in iter_bits(bits)]
        least = TernarySet.from_indices(2, oracles.orbit_min(trits, 2)[0] or ()).bits
        assert canon.canonical_form_bits(bits, 2) == least
        assert canon.is_lexmin_bits(bits, 2) == (bits == least)
        lexmin += bits == least
    assert lexmin == 36  # one per orbit of GL(2, 3) on the 2^9 sets


def test_lexmin_and_canonical_form_match_oracle_dim3_sampled():
    rng = random.Random(6)
    for _ in range(8):
        bits = TernarySet.from_indices(3, rng.sample(range(27), rng.randrange(1, 9))).bits
        trits = [oracles.to_trits(i, 3) for i in iter_bits(bits)]
        least = TernarySet.from_indices(3, oracles.orbit_min(trits, 3)[0]).bits
        assert canon.canonical_form_bits(bits, 3) == least
        assert canon.is_lexmin_bits(bits, 3) == (bits == least)
        assert canon.is_lexmin_bits(least, 3)
        image = canon.random_gl(3, rng).apply_bits(least)
        assert canon.is_lexmin_bits(image, 3) == (image == least)


def test_canonicalization_matches_oracle_dim3_sampled():
    rng = random.Random(3)
    for _ in range(12):
        size = rng.randrange(0, 8)
        idxs = rng.sample(range(27), size)
        a = TernarySet.from_indices(3, idxs)
        got = canonical_form(a)
        stab = stabilizer_order(a)
        trits = [oracles.to_trits(i, 3) for i in idxs]
        best, hits = oracles.orbit_min(trits, 3)
        assert tuple(got.indices()) == (best or ())
        if size:
            assert stab == hits
        else:
            assert stab == gl_order(3)


def test_is_lexmin_agrees_with_canonical_form():
    rng = random.Random(4)
    for n in (2, 3):
        for _ in range(200):
            bits = rng.getrandbits(3**n) & rng.getrandbits(3**n)
            a = TernarySet(n, bits)
            is_min = canon.is_lexmin_bits(bits, n)
            least = canonical_form(a).bits
            assert is_min == (least == bits)
            assert canon.is_lexmin_bits(least, n)


def test_orbit_stabilizer_identity():
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(6):
            size = rng.randrange(1, 6)
            a = TernarySet.from_indices(n, rng.sample(range(3**n), size))
            orbit = canon.orbit_of_bits(a.bits, n)
            assert len(orbit) * stabilizer_order(a) == gl_order(n)
            assert min(orbit, key=lambda b: tuple(iter_bits(b))) == canonical_form(a).bits


def test_lines_share_one_canonical_form():
    # every maximal sum-free set of the 2-dimensional space is one orbit
    from gf3sets import enumerate_maximal_sumfree

    rep = enumerate_maximal_sumfree(2, 1, up_to_iso=False)
    forms = {
        canonical_form(TernarySet.from_indices(2, s)).bits
        for s, _, _ in rep.representatives
    }
    assert len(forms) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hyperplane_transitivity(n):
    # the orbit accounting of primitive._orbit_reps rests on this at every n
    planes = sub.enumerate_hyperplanes(n, avoid_origin=True)
    orbit = canon.orbit_of_bits(planes[0].members_bits, n)
    assert len(orbit) == 3**n - 1
    assert orbit == {h.members_bits for h in planes}


def test_empty_and_full_sets_are_fixed():
    for n in (1, 2, 3):
        assert canonical_form(TernarySet.empty(n)).size == 0
        assert stabilizer_order(TernarySet.empty(n)) == gl_order(n)
        full = TernarySet.full(n)
        assert canonical_form(full) == full
        assert stabilizer_order(full) == gl_order(n)


# Random sets almost always have a trivial stabilizer and never exercise the
# automorphism pruning of the walk; unions of a few affine subspaces do.
@st.composite
def affine_unions(draw, n):
    sp = space(n)
    point = st.integers(0, 3**n - 1)
    bits = 0
    for _ in range(draw(st.integers(1, 3))):
        bits |= sp.span_bits(draw(st.lists(point, max_size=n - 1)), draw(point))
    return bits


def _form_and_stabilizer(bits, n):
    """(canonical form, stabilizer order) of bits: the walks of the descent
    to the form, then one more walk of the form."""
    form = canon.canonical_form_bits(bits, n)
    return form, canon.stabilizer_order_bits(form, n)


def test_stabilizer_order_refuses_a_set_not_least_in_its_orbit():
    # {-e_0} = {2} is the image of {e_0} = {1} under x -> -x
    assert canon.stabilizer_order_bits(1 << 1, 1) == 1
    with pytest.raises(ValueError, match="not least in its orbit"):
        canon.stabilizer_order_bits(1 << 2, 1)

    # the one walk finds a smaller image of any other member of the form's
    # orbit, and the set is refused, not descended from
    @settings(max_examples=40, deadline=None)
    @given(affine_unions(3), st.integers(0, 2**32))
    def check(bits, seed):
        form = canon.canonical_form_bits(bits, 3)
        image = canon.random_gl(3, random.Random(seed)).apply_bits(form)
        assume(image != form)
        with pytest.raises(ValueError, match="not least in its orbit"):
            canon.stabilizer_order_bits(image, 3)

    check()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_canonical_form_and_stabilizer_are_invariant(n):
    # the n = 5 examples are drawn the same in every run, so a slow union
    # cannot come and go between runs
    @settings(max_examples=40 if n < 5 else 10, deadline=None, derandomize=n == 5)
    @given(affine_unions(n), st.integers(0, 2**32))
    def check(bits, seed):
        image = canon.random_gl(n, random.Random(seed)).apply_bits(bits)
        assert _form_and_stabilizer(image, n) == _form_and_stabilizer(bits, n)

    check()


@settings(max_examples=12, deadline=None)
@given(affine_unions(3))
def test_structured_canonicalization_matches_oracle_dim3(bits):
    trits = [oracles.to_trits(i, 3) for i in iter_bits(bits)]
    best, hits = oracles.orbit_min(trits, 3)
    assert _form_and_stabilizer(bits, 3) == (
        TernarySet.from_indices(3, best).bits, hits
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("point", [0, 3**3], ids=["through_origin", "avoiding_origin"])
def test_orbit_stabilizer_for_subspaces_dim4(dim, point):
    # e_3 = index 27 lies outside the span of e_0..e_2
    a = TernarySet(4, sub.affine_subspace(4, tuple(3**i for i in range(dim)), point)
                   .members_bits)
    stab = stabilizer_order(a)
    assert len(canon.orbit_of_bits(a.bits, 4)) * stab == gl_order(4)
    if dim == 3 and point:
        assert stab == 303264


def _recorded(form, n):
    """The automorphisms that the walk of a set least in its orbit
    records, as stabilizer_order_bits takes them."""
    return canon._walk(form, n)


@pytest.mark.parametrize("n", [3, 4])
def test_recorded_automorphisms_fix_the_set_on_its_span(n):
    sp = space(n)

    @settings(max_examples=30, deadline=None)
    @given(affine_unions(n))
    def check(bits):
        form = canon.canonical_form_bits(bits, n)
        autos = _recorded(form, n)
        got = []
        assert canon.is_lexmin_bits(form, n, got) and got == autos
        m = 1
        while form >> m:
            m *= 3  # the span of a set least in its orbit is [0, m)
        for a in autos:
            assert sorted(a) == list(range(3**n))
            assert a[m:] == list(range(m, 3**n))
            assert sum(1 << a[x] for x in iter_bits(form)) == form
            for p in sp.powers:
                if p < m:
                    assert all(a[sp.add(x, p)] == sp.add(a[x], a[p]) for x in range(m))

    check()


def _level_orbits(autos, n):
    """Per level j, the orbit of e_j under the autos fixing e_0..e_{j-1}."""
    return [
        orbit_bits(1 << 3**j, [a for a in autos if all(a[3**i] == 3**i for i in range(j))])
        for j in range(n)
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lexmin_tests_take_any_known_automorphisms(n):
    # the search hands its children inherited automorphisms; here any subset
    # of the set's own, in any order
    @settings(max_examples=40, deadline=None)
    @given(affine_unions(n), st.integers(0, 2**32))
    def check(bits, seed):
        rnd = random.Random(seed)
        form = canon.canonical_form_bits(bits, n)
        full = _recorded(form, n)
        known = rnd.sample(full, rnd.randint(0, len(full)))
        got = list(known)
        assert canon.is_lexmin_bits(form, n, got)
        assert got[:len(known)] == known
        assert _level_orbits(got, n) == _level_orbits(full, n)
        # the same automorphisms, moved onto a GL image of the form
        perm = canon.random_gl(n, rnd).perm
        image = sum(1 << perm[x] for x in iter_bits(form))
        moved = []
        for a in known:
            b = [0] * 3**n
            for x, y in enumerate(a):
                b[perm[x]] = perm[y]
            moved.append(b)
        theirs = [list(b) for b in moved]
        assert canon.is_lexmin_bits(image, n, theirs) == (image == form)
        if image != form:
            assert theirs == moved

    check()


def test_automorphisms_are_refused_off_the_least_orbit_member():
    assert _recorded(0, 2) == []
    with pytest.raises(canon._Smaller):
        _recorded(1 << 2, 2)  # {-e_0}; its least image is {e_0}
    autos = []
    assert not canon.is_lexmin_bits(1 << 2, 2, autos) and autos == []


def _check_span_table(spans, n, child_span):
    """Every entry of a span table is span + <w>, for a subspace span and
    a point w off it, and equals child_span(generators of span, w)."""
    sp = space(n)
    for span, kids in spans.items():
        grown, generators = sp.span_members_bits(span)
        assert grown == span
        for w, child in kids.items():
            assert not span >> w & 1
            assert child == child_span(generators, w), (span, w)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_span_table_entries_are_the_spans_of_the_path(n):
    # one table for every walk, as a search run shares one across its tests
    sp = space(n)
    spans = {}

    @settings(max_examples=30, deadline=None)
    @given(affine_unions(n), st.integers(0, 2**32))
    def check(bits, seed):
        image = canon.random_gl(n, random.Random(seed)).apply_bits(bits)
        form = canon.canonical_form_bits(image, n)
        assert form == canon.canonical_form_bits(bits, n)
        for b in (image, form):
            got, want = [], []
            assert (canon.is_lexmin_bits(b, n, got, run=(spans, {}))
                    == canon.is_lexmin_bits(b, n, want))
            assert got == want
        assert len(spans) < canon._SPAN_TABLE_MAX  # never emptied at n <= 4
        _check_span_table(spans, n, lambda gens, w: sp.span_bits(gens + [w]))

    check()


def test_a_full_span_table_is_emptied_and_the_walks_go_on(monkeypatch):
    # the read table too: walks of sum-free sets share one
    monkeypatch.setattr(canon, "_SPAN_TABLE_MAX", 3)
    rng = random.Random(5)
    spans, reads, read_sizes = {}, {}, []
    for _ in range(20):
        idxs = rng.sample(range(27), rng.randint(2, 9))
        bits = TernarySet.from_indices(3, idxs).bits
        best = oracles.orbit_min([oracles.to_trits(i, 3) for i in idxs], 3)[0]
        least = TernarySet.from_indices(3, best).bits
        assert canon.canonical_form_bits(bits, 3) == least
        assert canon.is_lexmin_bits(least, 3, run=(spans, {}))
        assert len(spans) <= 3
        free = []  # a sum-free set, grown greedily in a random order
        for i in rng.sample(range(1, 27), 26):
            if is_sum_free(TernarySet.from_indices(3, free + [i])):
                free.append(i)
        best = oracles.orbit_min([oracles.to_trits(i, 3) for i in free], 3)[0]
        least = TernarySet.from_indices(3, best).bits
        bits = TernarySet.from_indices(3, free).bits
        assert canon.is_lexmin_bits(bits, 3, run=({}, reads)) == (bits == least)
        assert canon.is_lexmin_bits(least, 3, run=({}, reads))
        read_sizes.append(len(reads))
    assert max(read_sizes) <= 3
    assert any(b < a for a, b in zip(read_sizes, read_sizes[1:]))  # emptied


def test_walks_in_several_dimensions_interleaved_match_the_oracle():
    # a span table per dimension, grown across walks at n = 2, 3 and 4 in
    # turn, with lone walks (which make their own) in between
    rng = random.Random(24)
    tables = {2: {}, 3: {}, 4: {}}
    for _ in range(5):
        for n in rng.sample([2, 3, 4], 3):
            spans = tables[n]
            if n < 4:
                idxs = rng.sample(range(3**n), rng.randint(1, 3**n // 3))
                bits = TernarySet.from_indices(n, idxs).bits
                best, hits = oracles.orbit_min([oracles.to_trits(i, n) for i in idxs], n)
                least = TernarySet.from_indices(n, best).bits
                stab = hits
            else:
                # a linear subspace: the least of its dimension k is [0, 3^k)
                trits = [oracles.to_trits(rng.randrange(81), 4) for _ in range(rng.randint(1, 3))]
                bits = sum(1 << oracles.to_index(v) for v in oracles.span(trits, 4))
                k = len(oracles.rref(trits, 4))
                least = (1 << 3**k) - 1
                stab = gl_order(4) // oracles.gaussian_binomial(4, k)
            assert canon.canonical_form_bits(bits, n) == least
            assert canon.is_lexmin_bits(bits, n, run=(spans, {})) == (bits == least)
            assert canon.is_lexmin_bits(least, n, run=(spans, {}))
            assert _form_and_stabilizer(bits, n) == (least, stab)
    for n, spans in tables.items():
        assert spans

        def oracle_span(gens, w, n=n):
            vectors = [oracles.to_trits(g, n) for g in gens + [w]]
            return sum(1 << oracles.to_index(v) for v in oracles.span(vectors, n))

        _check_span_table(spans, n, oracle_span)


def test_walks_retain_none_of_their_tables():
    # each walk that is not handed a span table makes its own and drops it
    # on return, with its other tables; the translation rows the walks read
    # are kept by design, so all of them are built first.  A per-space
    # table kept across these walks would retain about 40 KiB of sparse
    # entries (a dense row per span far more), and walks left to the cycle
    # collector about 360 KiB
    sp = space(6)
    for w in range(sp.size):
        sp.add_row(w)
    rng = random.Random(2006)
    sets = [sum(1 << p for p in rng.sample(range(sp.size), rng.randint(1, 8)))
            for _ in range(30)]
    tracemalloc.start()
    try:
        for bits in sets:
            _form_and_stabilizer(bits, 6)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1 << 14


@st.composite
def lemma_sets(draw, n):
    """The sets a split treats apart: greedy sum-free sets (cut
    at a drawn size), random linear images of them, many of which lack
    index 1 or 3 and so a position the lemma asks for, and arbitrary
    bitsets, most of them not sum-free."""
    kind = draw(st.sampled_from(("greedy", "image", "any")))
    if kind == "any":
        return draw(st.integers(0, (1 << 3**n) - 1))
    cap = draw(st.integers(1, 3**n))
    members = []
    for i in draw(st.permutations(range(1, 3**n))):
        if len(members) < cap and oracles.is_sum_free(
                [oracles.to_trits(j, n) for j in members + [i]]):
            members.append(i)
    bits = sum(1 << i for i in members)
    if kind == "image":
        bits = canon.random_gl(n, random.Random(draw(st.integers(0, 2**32)))).apply_bits(bits)
    return bits


@pytest.mark.parametrize("n", [2, 3])
def test_fixed_mode_walks_of_sum_free_sets_match_the_oracle(n):
    # a split reads only the points the lemma leaves open for a sum-free
    # set that holds the position it asks for; every other set reads them
    # all
    sp = space(n)

    @settings(max_examples=150 if n == 2 else 60, deadline=None)
    @given(lemma_sets(n))
    def check(bits):
        best, hits = oracles.orbit_min([oracles.to_trits(i, n) for i in iter_bits(bits)], n)
        least = sum(1 << i for i in best)
        # complete tables as a search node holds them, and none
        complete = search._replay(sp, bits, False)[3]
        for tables in (None, complete):
            autos = []
            assert canon.is_lexmin_bits(bits, n, autos, tables) == (bits == least)
            for a in autos:
                assert sum(1 << a[x] for x in iter_bits(bits)) == bits
        assert _form_and_stabilizer(bits, n) == (least, hits)

    check()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lexmin_tests_sharing_run_tables_match_lone_walks(n):
    # one span table and one read table for every example, as a search run
    # shares them across its tests.  A level's read lists are keyed by the
    # points of the set below 3 * block, all that they depend on, so sets
    # that differ there must not share them
    sp = space(n)
    run = ({}, {})

    @settings(max_examples=150 if n == 2 else 60, deadline=None)
    @given(lemma_sets(n))
    def check(bits):
        complete = search._replay(sp, bits, False)[3]
        for tables in (None, complete):
            got, want = [], []
            assert (canon.is_lexmin_bits(bits, n, got, tables, run)
                    == canon.is_lexmin_bits(bits, n, want, tables))
            assert got == want

    check()
    spans, reads = run
    _check_span_table(spans, n, lambda gens, w: sp.span_bits(gens + [w]))
    assert reads  # some read lists were shared
    for block, prefix, sum_free in reads:
        assert block in sp.powers and prefix >> 3 * block == 0
        assert isinstance(sum_free, bool)


def test_lexmin_tests_agree_with_descents_at_dim4():
    # a lexmin test on a search node's tables and a shared run pair answers
    # as the lone walks of a descent: a set is least in its orbit exactly
    # when it is its own canonical form, and the descents from two members
    # of one orbit end at the same form.  Random sets are almost never
    # least, their canonical forms always are, and GL images of those
    # sometimes are.  Most of these are settled at the root; a form with
    # one point flipped ties it on a long prefix, so the walk decides it
    # deep down
    sp = space(4)
    run = ({}, {})

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.integers(0, 80), min_size=1, max_size=12), st.integers(0, 2**32),
           st.integers(1, 80))
    def check(points, seed, flip):
        bits = sum(1 << i for i in points)
        rng = random.Random(seed)
        form = canon.canonical_form_bits(bits, 4)
        image = canon.random_gl(4, rng).apply_bits(form)
        moved = canon.random_gl(4, rng).apply_bits(bits)
        assert canon.canonical_form_bits(moved, 4) == form
        for b in (bits, form, image, form ^ 1 << flip):
            autos = []
            tables = search._replay(sp, b, False)[3]
            assert canon.is_lexmin_bits(b, 4, autos, tables, run) == (
                canon.canonical_form_bits(b, 4) == b)
            for a in autos:
                assert sum(1 << a[x] for x in iter_bits(b)) == b

    check()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_descent_step_is_strictly_smaller(n, monkeypatch):
    # each step of a descent goes from a set to a smaller member of its
    # orbit, and the last step's image is the canonical form
    steps = []
    real = canon._greedy_image

    def recorded(bits, n, *witness):
        image = real(bits, n, *witness)
        steps.append((bits, image))
        return image

    monkeypatch.setattr(canon, "_greedy_image", recorded)
    taken = 0

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(affine_unions(n), st.integers(0, (1 << 3**n) - 1)))
    def check(bits):
        nonlocal taken
        steps.clear()
        form = canon.canonical_form_bits(bits, n)
        chain = [bits] + [image for _, image in steps]
        assert [b for b, _ in steps] == chain[:-1] and chain[-1] == form
        for b, image in steps:
            assert canon._compare(image, b) < 0
            assert image.bit_count() == b.bit_count()
            if n <= 2:
                assert image in canon.orbit_of_bits(b, n)
        taken += len(steps)

    check()
    assert taken > 0
