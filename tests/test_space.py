"""Index arithmetic tables and set kernels against the naive trit oracle."""

import contextlib
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import gf3sets
from gf3sets import canon, core, space


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_encode_decode_roundtrip(n):
    for i in range(3**n):
        trits = space.decode(i, n)
        assert oracles.to_trits(i, n) == trits
        assert space.encode(trits) == i


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_linear_map_matches_the_matrix_oracle(data):
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, n))
    imgs = data.draw(st.lists(st.integers(0, 3**n - 1), min_size=k, max_size=k))
    # a k x n matrix, padded with zero rows to the oracle's square form
    rows = [oracles.to_trits(v, n) for v in imgs] + [(0,) * n] * (n - k)
    want = [
        oracles.to_index(oracles.apply_matrix(rows, oracles.to_trits(x, k) + (0,) * (n - k)))
        for x in range(3**k)
    ]
    assert space.space(n).linear_map(imgs) == want
    basis = canon.random_basis(n, random.Random(data.draw(st.integers(0, 2**32))))
    assert canon.GroupElement(n, basis).perm == space.space(n).linear_map(basis)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_add_sub_neg_tables(n):
    sp = space.space(n)
    for i in range(sp.size):
        u = oracles.to_trits(i, n)
        assert sp.neg[i] == oracles.to_index(oracles.neg(u))
        for j in range(sp.size):
            v = oracles.to_trits(j, n)
            assert sp.add(i, j) == oracles.to_index(oracles.add(u, v))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bitset_ops_match_setwise(n):
    rng = random.Random(n)
    sp = space.space(n)
    for _ in range(25):
        abits = rng.getrandbits(sp.size)
        bbits = rng.getrandbits(sp.size)
        a = {oracles.to_trits(i, n) for i in space.iter_bits(abits)}
        b = {oracles.to_trits(i, n) for i in space.iter_bits(bbits)}
        got_sum = {
            oracles.to_trits(i, n)
            for i in space.iter_bits(sp.sumset_bits(abits, bbits))
        }
        assert got_sum == oracles.sumset(a, b)
        got_neg = {
            oracles.to_trits(i, n) for i in space.iter_bits(sp.neg_set_bits(abits))
        }
        assert got_neg == {oracles.neg(x) for x in a}
        v = rng.randrange(sp.size)
        got_tr = {
            oracles.to_trits(i, n)
            for i in space.iter_bits(sp.translate_bits(abits, v))
        }
        w = oracles.to_trits(v, n)
        assert got_tr == {oracles.add(x, w) for x in a}


def test_span_bits():
    sp = space.space(3)
    assert sp.span_bits(()) == 1
    assert sp.span_bits((1,)) == 0b111
    e0e1 = sp.span_bits((1, 3))
    want = {
        oracles.to_index(v) for v in oracles.span([(1, 0, 0), (0, 1, 0)], 3)
    }
    assert set(space.iter_bits(e0e1)) == want
    assert sp.span_bits((1, 3, 9)) == sp.full_bits


def test_iter_bits_order():
    assert list(space.iter_bits(0b101101)) == [0, 2, 3, 5]
    assert list(space.iter_bits(0)) == []


def test_check_dim_limits():
    space.check_dim(0)
    space.check_dim(space.MAX_DIM)
    with pytest.raises(ValueError):
        space.check_dim(-1)
    with pytest.raises(ValueError):
        space.check_dim(space.MAX_DIM + 1)
    with pytest.raises(TypeError):
        space.check_dim("3")


# -- the bit-sliced kernels against the trit oracle and a per-point reference --


def _vecs(bits, n):
    return {oracles.to_trits(i, n) for i in space.iter_bits(bits)}


def _bits(vectors):
    out = 0
    for v in vectors:
        out |= 1 << oracles.to_index(v)
    return out


@st.composite
def dim_and_sets(draw, count):
    n = draw(st.integers(0, 4))
    sets = [draw(st.integers(0, 2**3**n - 1)) for _ in range(count)]
    return n, sets


@settings(max_examples=150, deadline=None)
@given(dim_and_sets(2), st.data())
def test_kernels_match_oracle(case, data):
    n, (a, b) = case
    sp = space.space(n)
    v = data.draw(st.integers(0, sp.size - 1))
    va, vb, w = _vecs(a, n), _vecs(b, n), oracles.to_trits(v, n)
    assert sp.translate_bits(a, v) == _bits(oracles.add(x, w) for x in va)
    assert sp.neg_set_bits(a) == _bits(oracles.neg(x) for x in va)
    assert sp.sumset_bits(a, b) == _bits(oracles.sumset(va, vb))
    assert sp.difference_set_bits(a, b) == _bits(oracles.difference_set(va, vb))
    if a:
        assert core.sym_group_bits(a, n) == _bits(oracles.sym_group(va, n))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, 3**n - 1), max_size=n + 1),
        st.integers(0, 3**n - 1),
    )
))
def test_span_bits_matches_oracle(case):
    n, gens, base = case
    sp = space.space(n)
    direction = oracles.span([oracles.to_trits(g, n) for g in gens], n)
    b = oracles.to_trits(base, n)
    assert sp.span_bits(gens, base) == _bits(oracles.add(b, d) for d in direction)


def _neg_ref(i, n):
    return space.encode((-t) % 3 for t in space.decode(i, n))


def _translate_ref(bits, v, n):
    """Per-point translate through decode/encode."""
    w = space.decode(v, n)
    out = 0
    for i in space.iter_bits(bits):
        out |= 1 << space.encode((s + t) % 3 for s, t in zip(space.decode(i, n), w))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_move_list_matches_per_point_reference(n):
    rng = random.Random(3000 + n)
    sp = space.space(n)
    dense = rng.getrandbits(sp.size)
    sparse = sum(1 << i for i in rng.sample(range(sp.size), min(sp.size, 4)))
    base = rng.randrange(sp.size)
    for v in range(sp.size):
        for bits in (dense, sparse):
            assert sp.translate_bits(bits, v) == _translate_ref(bits, v, n)
        twice = _translate_ref(1 << v, v, n)
        assert sp.span_bits([v]) == 1 | 1 << v | twice
        assert sp.span_bits([v], base) == _translate_ref(1 | 1 << v | twice, base, n)
    for bits in (dense, sparse):
        assert sp.translates_bits(bits) == [_translate_ref(bits, v, n) for v in range(sp.size)]


@pytest.mark.parametrize("n", range(9))
def test_move_lists_have_one_entry_per_nonzero_trit(n):
    sp = space.space(n)
    assert sp.moves[0] == ()
    assert len(sp.moves) == sp.size
    for v in random.Random(4000 + n).sample(range(sp.size), min(sp.size, 40)):
        shifts = [(p, 2 * p) if t == 1 else (2 * p, p)
                  for p, t in zip(sp.powers, space.decode(v, n)) if t]
        assert [(a, b) for _, a, _, b in sp.moves[v]] == shifts


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_kernels_match_per_point_reference(n):
    rng = random.Random(1000 + n)
    sp = space.space(n)
    for _ in range(6):
        dense = rng.getrandbits(sp.size)
        sparse = sum(1 << i for i in rng.sample(range(sp.size), 12))
        v = rng.randrange(sp.size)
        for bits in (dense, sparse):
            assert sp.translate_bits(bits, v) == _translate_ref(bits, v, n)
            neg = 0
            for i in space.iter_bits(bits):
                neg |= 1 << _neg_ref(i, n)
            assert sp.neg_set_bits(bits) == neg
        plus = minus = 0
        for u in space.iter_bits(sparse):
            plus |= _translate_ref(dense, u, n)
            minus |= _translate_ref(dense, _neg_ref(u, n), n)
        assert sp.sumset_bits(dense, sparse) == plus
        assert sp.sumset_bits(sparse, dense) == plus
        assert sp.difference_set_bits(dense, sparse) == minus


@st.composite
def sumset_pairs(draw):
    """(n, a, b): a is the side the kernel walks (it swaps the arguments
    when a is the larger).  Its members may all lie in one block of
    3^(n // 2) indices, or in block 0; the pair may saturate, with
    |a| + |b| > 3^n; either side may be empty."""
    n = draw(st.integers(0, 6))
    size, block = 3**n, 3 ** (n // 2)
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["sparse", "one_block", "block_zero", "saturating", "empty"]))
    b = rng.getrandbits(size)
    if kind == "sparse":
        a = sum(1 << i for i in rng.sample(range(size), rng.randint(1, min(size, 12))))
    elif kind in ("one_block", "block_zero"):
        h = rng.randrange(size // block) if kind == "one_block" else 0
        a = rng.getrandbits(block) << h * block
    elif kind == "saturating":
        missing = rng.sample(range(size), rng.randint(0, min(size - 1, 5)))
        b = (1 << size) - 1 - sum(1 << i for i in missing)
        a = sum(1 << i for i in rng.sample(range(size), min(size, len(missing) + rng.randint(1, 4))))
    else:
        a = 0
    return n, a, b


@settings(max_examples=200, deadline=None)
@given(sumset_pairs())
def test_sumset_kernel_matches_per_point_reference(case):
    n, a, b = case
    sp = space.space(n)
    plus = minus = 0
    for u in space.iter_bits(a):
        plus |= _translate_ref(b, u, n)
        minus |= _translate_ref(b, _neg_ref(u, n), n)
    assert sp.sumset_bits(a, b) == plus
    assert sp.sumset_bits(b, a) == plus
    assert sp.difference_set_bits(b, a) == minus
    assert sp.difference_set_bits(a, b) == sp.neg_set_bits(minus)


@settings(max_examples=200, deadline=None)
@given(sumset_pairs(), st.data())
def test_sumset_walk_stopped_at_a_mask(case, data):
    """With a stop mask the walk returns all of a + b when its result
    misses the mask, and a part of a + b that meets it otherwise."""
    n, a, b = case
    sp = space.space(n)
    whole = sp.sumset_bits(a, b)
    drawn = data.draw(st.integers(0, sp.full_bits))
    point = 1 << data.draw(st.integers(0, sp.size - 1))
    for stop in (a, b, whole, drawn, point, sp.full_bits & ~whole):
        for x, y in ((a, b), (b, a)):
            got = sp.sumset_bits(x, y, stop)
            assert got & ~whole == 0
            if whole & stop:
                assert got & stop
            else:
                assert got == whole


@pytest.mark.parametrize("n", range(9))
def test_tables_match_decode_reference(n):
    sp = space.space(n)
    assert sp.neg == [_neg_ref(i, n) for i in range(sp.size)]
    for v in random.Random(1000 + n).sample(range(sp.size), min(sp.size, 3)):
        assert sp.add_row(v) == [
            space.encode((s + t) % 3 for s, t in zip(space.decode(x, n), space.decode(v, n)))
            for x in range(sp.size)
        ]
    rng = random.Random(2000 + n)
    for _ in range(200):
        i, j = rng.randrange(sp.size), rng.randrange(sp.size)
        want = space.encode(
            (s + t) % 3 for s, t in zip(space.decode(i, n), space.decode(j, n))
        )
        assert sp.add(i, j) == want


def test_a_fresh_space_builds_no_addition_table():
    tracemalloc.start()
    try:
        space.Space(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_space_holds_no_per_vector_trit_table():
    # at n = 9 the negation and move tables hold about 2.7 MiB; a table of
    # the 19,683 vectors' trit tuples held about 2.2 MiB more
    tracemalloc.start()
    try:
        sp = space.Space(9)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sp.size == 3**9
    assert held < 3.5 * (1 << 20)


def test_rows_are_not_kept_above_the_walk_cap():
    # at n = 8 each kept row would hold 6,561 entries (about 50 MB for these calls)
    sp = space.Space(8)
    rng = random.Random(2008)
    pairs = [(rng.randrange(sp.size), rng.randrange(sp.size)) for _ in range(200)]
    tracemalloc.start()
    try:
        for i, j in pairs:
            sp.add(i, j)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20
    small = space.Space(space.MAX_WALK_DIM)
    assert small.add_row(5) is small.add_row(5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_point_rows_are_the_one_point_sets(n):
    sp = space.space(n)
    for v in range(sp.size):
        plus, minus = sp.point_rows(v)
        u = oracles.to_trits(v, n)
        for x in range(sp.size):
            y = oracles.to_trits(x, n)
            assert plus[x] == 1 << oracles.to_index(oracles.sub(u, y))
            assert minus[x] == 1 << oracles.to_index(oracles.sub(y, u))
        # every row references one int per one-point set, and is kept
        assert {id(b) for b in plus + minus} <= {id(b) for b in sp.point_rows(0)[1]}
        assert sp.point_rows(v)[0] is plus


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(0, 3**n - 1), max_size=4),
    st.integers(0, 3), st.integers(0, 2**32))))
def test_orbit_bits_is_the_closure_under_the_permutations(case):
    n, points, k, seed = case
    rng = random.Random(seed)
    perms = [canon.random_gl(n, rng).perm for _ in range(k)]
    orbit = set(points)
    while True:
        more = {a[x] for a in perms for x in orbit} - orbit
        if not more:
            break
        orbit |= more
    assert space.orbit_bits(sum(1 << x for x in points), perms) == sum(1 << x for x in orbit)


def test_no_numpy_in_a_fresh_interpreter():
    # pytest's own process may already hold numpy through hypothesis
    code = (
        "import random, sys\n"
        "import gf3sets\n"
        "from gf3sets import canon, space\n"
        "for n in range(9):\n"
        "    space.space(n)\n"
        "canon.random_gl(4, random.Random(0)).apply_bits(0b1011)\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(gf3sets.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", code],
        check=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


def test_slabs_partition_each_coordinate():
    for n in range(5):
        sp = space.space(n)
        for i, slabs in enumerate(sp.slabs):
            assert slabs[0] | slabs[1] | slabs[2] == sp.full_bits
            for d, mask in enumerate(slabs):
                assert set(space.iter_bits(mask)) == {
                    x for x in range(sp.size) if space.decode(x, n)[i] == d
                }


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda size: st.tuples(st.just(size), st.lists(st.integers(0, (1 << size) - 1), max_size=30))))
def test_member_columns_transpose_the_family(case):
    size, family = case
    columns = space.member_columns(family, size)
    assert len(columns) == size
    for p, col in enumerate(columns):
        assert col == sum(1 << i for i, b in enumerate(family) if b >> p & 1)
    # a generator gives the same table
    assert space.member_columns(iter(family), size) == columns


# -- the draw helpers against the random module, draw for draw --

# (size, largest k): 26 and 27 take random.sample's set branch for k <= 5
# and its pool branch above; 21 and 22 sit on either side of its smallest
# set size, which holds for k <= 5
SAMPLE_CASES = ((1, 1), (3, 3), (9, 9), (26, 26), (27, 27), (81, 81), (21, 6), (22, 6))


def _populations(size):
    return range(size), [7 + 2 * i for i in range(size)]


def test_sample_bits_draws_what_random_sample_draws():
    # one generator pair per seed runs through every population and every
    # k: equal bitsets call by call, and equal states at the end, so one
    # draw more or less anywhere shows
    for seed in range(1000):
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        for size, top in SAMPLE_CASES:
            for population in _populations(size):
                for k in range(top + 1):
                    want = 0
                    for x in want_rng.sample(population, k):
                        want |= 1 << x
                    assert space.sample_bits(got_rng, population, k) == want
        assert got_rng.getstate() == want_rng.getstate()


def test_randbelow_draws_what_randrange_draws():
    for seed in range(20):
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        for m in range(1, 201):
            for _ in range(5):
                assert space.randbelow(got_rng, m) == want_rng.randrange(m)
            assert got_rng.getstate() == want_rng.getstate()


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, instead of hanging, when the body runs longer than seconds:
    getrandbits(0) is 0, so a draw loop without its guard never ends."""

    def hang(signum, frame):
        raise TimeoutError(f"still drawing after {seconds} s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("m", [0, -1, -27])
def test_randbelow_refuses_an_empty_range_before_drawing(m):
    rng = random.Random(5)
    before = rng.getstate()
    with pytest.raises(ValueError):
        random.Random(5).randrange(m)
    with _deadline(5), pytest.raises(ValueError):
        space.randbelow(rng, m)
    assert rng.getstate() == before


@pytest.mark.parametrize("size, k", [(0, 1), (3, -1), (3, 4), (27, 28), (81, -5)])
def test_sample_bits_refuses_what_random_sample_refuses(size, k):
    for population in _populations(size):
        rng = random.Random(5)
        before = rng.getstate()
        with pytest.raises(ValueError):
            random.Random(5).sample(population, k)
        with _deadline(5), pytest.raises(ValueError):
            space.sample_bits(rng, population, k)
        assert rng.getstate() == before
