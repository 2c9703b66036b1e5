"""Set type and sum-free predicates against the oracle."""

import contextlib
import random
import signal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from gf3sets import (
    ParseError,
    TernarySet,
    difference_set,
    format_set_text,
    is_aperiodic,
    is_maximal_sum_free,
    is_sum_free,
    k_fold_sumset,
    lev_construction,
    negate,
    parse_set_text,
    sumset,
    sym_group,
)
from gf3sets.core import blocked_cover_bits, is_sum_free_bits, sym_group_bits
from gf3sets.space import iter_bits, space


def _random_set(rng, n):
    return TernarySet(n, rng.getrandbits(3**n))


def _as_trits(a):
    return {oracles.to_trits(i, a.dim) for i in a.indices()}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sumfree_predicates_match_oracle(n):
    rng = random.Random(10 + n)
    for _ in range(120):
        a = _random_set(rng, n)
        trits = _as_trits(a)
        assert is_sum_free(a) == oracles.is_sum_free(trits)
        assert is_maximal_sum_free(a) == oracles.is_maximal_sum_free(trits, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, 2**3**n - 1))))
def test_sum_free_predicates_match_oracle_on_any_set(case):
    n, bits = case
    want = oracles.is_sum_free(_as_trits(TernarySet(n, bits)))
    assert is_sum_free_bits(bits, n) == is_sum_free(TernarySet(n, bits)) == want


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_sum_free_predicates_match_oracle_around_lev(n):
    """lev(n) is maximal sum-free: a point added to it puts a sum inside,
    a point taken away leaves it sum-free."""
    lev = lev_construction(n)[0].bits
    rng = random.Random(40 + n)
    inside = rng.choice(list(iter_bits(lev)))
    outside = rng.choice([v for v in range(3**n) if not lev >> v & 1])
    for bits, want in ((lev, True), (lev | 1 << outside, False), (lev ^ 1 << inside, True)):
        a = TernarySet(n, bits)
        assert oracles.is_sum_free(_as_trits(a)) == want
        assert is_sum_free_bits(bits, n) == is_sum_free(a) == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_setwise_operations_match_oracle(n):
    rng = random.Random(20 + n)
    for _ in range(60):
        a, b = _random_set(rng, n), _random_set(rng, n)
        assert _as_trits(sumset(a, b)) == oracles.sumset(_as_trits(a), _as_trits(b))
        assert _as_trits(difference_set(a, b)) == oracles.difference_set(
            _as_trits(a), _as_trits(b)
        )
        assert _as_trits(negate(a)) == {oracles.neg(x) for x in _as_trits(a)}


def _k_fold_chain(a, k):
    """[a, 2a, ..., ka] by the plain loop of sumsets."""
    out = [a]
    for _ in range(k - 1):
        out.append(sumset(out[-1], a))
    return out


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, instead of hanging, when the body runs longer than seconds."""

    def late(signum, frame):
        raise TimeoutError(f"still summing after {seconds} s")

    old = signal.signal(signal.SIGALRM, late)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_k_fold_sumset():
    rng = random.Random(58)
    for n in range(4):
        cases = [TernarySet(n, 0), TernarySet(n, 1), TernarySet.full(n)]
        cases += [_random_set(rng, n) for _ in range(60)]
        cases += [TernarySet(n, 1 << rng.randrange(3**n)) for _ in range(5)]
        for a in cases:
            chain = _k_fold_chain(a, 29)
            for k in range(1, 30):
                assert k_fold_sumset(a, k) == chain[k - 1]
    # each chain a, 4a, 7a, ... grows at most 3^3 - 1 times, so at n = 3
    # the 79-fold sumset is the 10^12-fold one (10^12 = 1 mod 3)
    for _ in range(20):
        a = _random_set(rng, 3)
        with _deadline(1):
            got = k_fold_sumset(a, 10**12)
        assert got == _k_fold_chain(a, 79)[-1]
    with pytest.raises(ValueError):
        k_fold_sumset(TernarySet(1, 1), 0)
    a = TernarySet.from_indices(3, [1, 5])
    one = k_fold_sumset(a, 1)
    assert one == a
    two = k_fold_sumset(a, 2)
    assert _as_trits(two) == oracles.sumset(_as_trits(a), _as_trits(a))
    four = k_fold_sumset(a, 4)
    import itertools

    want = set()
    pts = list(_as_trits(a))
    for combo in itertools.product(pts, repeat=4):
        total = (0, 0, 0)
        for p in combo:
            total = oracles.add(total, p)
        want.add(total)
    assert _as_trits(four) == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sym_group_matches_oracle(n):
    rng = random.Random(30 + n)
    for _ in range(80):
        a = _random_set(rng, n)
        if a.size == 0:
            continue
        got = _as_trits(sym_group(a).members())
        assert got == oracles.sym_group(_as_trits(a), n)
        assert is_aperiodic(a) == (len(got) == 1)


def test_sym_group_of_empty_set_raises():
    with pytest.raises(ValueError):
        sym_group(TernarySet.empty(2))
    with pytest.raises(ValueError):
        sym_group_bits(0, 2)


def test_sym_group_of_coset_union():
    # a union of cosets of a subgroup is stabilized by that subgroup
    sub = {(0, 0, 0), (1, 0, 0), (2, 0, 0)}
    shifted = {oracles.add(v, (0, 1, 0)) for v in sub}
    a = TernarySet.from_indices(3, (oracles.to_index(t) for t in sub | shifted))
    assert _as_trits(sym_group(a).members()) >= sub


def _sym_by_every_translate(bits, n):
    """The stabilizer as the intersection of one translate per member,
    with no early stop: the loop sym_group_bits cuts short."""
    sp = space(n)
    out = sp.full_bits
    for s in iter_bits(bits):
        out &= sp.translate_bits(bits, sp.neg[s])
    return out


def test_stabilizer_walk_passes_a_subgroup_that_does_not_fix_the_set():
    # The hyperplane x_{n-1} = 0 (n = 3, 4) plus the three points e, e_1 + e
    # and 2e for e = e_{n-1}, whose x_0 is 0: 3^(n-1) + 3 points, a count
    # the size gate leaves to the walk.  The translates of the set by -0
    # and -e_0 already meet in that hyperplane, a subgroup of size 3^(n-1)
    # that e_0 does not fix, so the walk must see that its generators move
    # the set and go on to {0}.
    for n in (3, 4):
        sp = space(n)
        e = 3 ** (n - 1)
        subgroup = (1 << e) - 1
        bits = subgroup | 1 << e | 1 << (e + 3) | 1 << (2 * e)
        assert bits.bit_count() % 3 == 0
        trail = []
        out = sp.full_bits
        for s in iter_bits(bits):
            out &= sp.translate_bits(bits, sp.neg[s])
            trail.append(out)
        assert trail[1] == subgroup == sp.span_members_bits(subgroup)[0]
        assert sp.translate_bits(bits, 1) != bits
        assert sym_group_bits(bits, n) == 1 == _sym_by_every_translate(bits, n)
        want = oracles.sym_group(_as_trits(TernarySet(n, bits)), n)
        assert want == {oracles.to_trits(0, n)}


def test_sym_group_bits_checks_emptiness_then_dimension():
    # the empty set is refused before the dimension is read, and a bad
    # dimension before the size gate answers
    for n in (-1, 99):
        with pytest.raises(ValueError, match="empty set"):
            sym_group_bits(0, n)
        for bits in (0b1, 0b11, 0b111):
            with pytest.raises(ValueError, match="dimension must be"):
                sym_group_bits(bits, n)


# Sets of every size class mod 3 at n <= 3, as random points of a random
# size in that class; the test also takes their complements.
@st.composite
def sets_by_size_mod_3(draw):
    n = draw(st.integers(1, 3))
    residue = draw(st.integers(0, 2))
    size = draw(st.sampled_from([s for s in range(1, 3**n + 1) if s % 3 == residue]))
    points = draw(st.permutations(range(3**n)))[:size]
    return n, sum(1 << p for p in points)


@settings(max_examples=300, deadline=None)
@given(sets_by_size_mod_3())
def test_sym_group_bits_matches_oracle_in_every_size_class(case):
    n, bits = case
    for b in (bits, space(n).full_bits & ~bits):
        if not b:
            continue
        got = sym_group_bits(b, n)
        want = oracles.sym_group(_as_trits(TernarySet(n, b)), n)
        assert {oracles.to_trits(t, n) for t in iter_bits(got)} == want
        if b.bit_count() % 3:
            assert got == 1


# Random sets are almost never periodic; these are unions of cosets of a
# random subspace L, their complements and the full space, so the
# stabilizer is at least L.
@st.composite
def periodic_sets(draw):
    n = draw(st.integers(1, 6))
    sp = space(n)
    period = sp.span_bits(draw(st.lists(st.integers(0, sp.size - 1), max_size=n)))
    bits = 0
    for v in draw(st.lists(st.integers(0, sp.size - 1), min_size=1, max_size=6)):
        bits |= sp.translate_bits(period, v)
    form = draw(st.sampled_from(("union", "complement", "full")))
    if form == "complement":
        bits = sp.full_bits & ~bits
    elif form == "full":
        bits = sp.full_bits
    return n, period, bits


@settings(max_examples=200, deadline=None)
@given(periodic_sets())
def test_sym_group_bits_matches_oracle_on_periodic_sets(case):
    n, period, bits = case
    assume(bits)
    got = sym_group_bits(bits, n)
    assert period & ~got == 0
    if n >= 5:
        assert got == _sym_by_every_translate(bits, n)
        return
    want = oracles.sym_group(_as_trits(TernarySet(n, bits)), n)
    assert {oracles.to_trits(t, n) for t in iter_bits(got)} == want


def test_blocked_cover_is_the_extension_obstruction():
    rng = random.Random(4)
    sp_checked = 0
    for _ in range(300):
        size = rng.randrange(0, 6)
        a = TernarySet.from_indices(3, rng.sample(range(27), size))
        if not is_sum_free(a):
            continue
        sp_checked += 1
        blocked = blocked_cover_bits(a)
        for v in range(27):
            extended = TernarySet(3, a.bits | 1 << v)
            if v in a.indices():
                continue
            assert is_sum_free(extended) == (not blocked >> v & 1)
    assert sp_checked > 20


# Sparse sets: dense random sets are almost never sum-free.
@st.composite
def sparse_sets(draw):
    n = draw(st.integers(1, 4))
    points = draw(st.lists(st.integers(0, 3**n - 1), max_size=3**(n - 1) + 2))
    return TernarySet.from_indices(n, points)


@settings(max_examples=150, deadline=None)
@given(sparse_sets())
def test_fused_maximality_kernel_matches_oracle(a):
    n = a.dim
    trits = [oracles.to_trits(i, n) for i in a.indices()]
    assert is_maximal_sum_free(a) == oracles.is_maximal_sum_free(trits, n)
    if oracles.is_sum_free(trits):
        blocked = {
            oracles.to_index(v) for v in oracles.all_vectors(n)
            if v in trits or not oracles.is_sum_free(trits + [v])
        }
        assert set(iter_bits(blocked_cover_bits(a))) == blocked


def test_ternary_set_basics():
    a = TernarySet.from_indices(2, [3, 1])
    assert a.indices() == [1, 3]
    assert a.size == 2
    assert 1 in a and 2 not in a
    b = TernarySet.full(1)
    assert b.size == 3
    with pytest.raises(ValueError):
        TernarySet(1, 1 << 5)


def test_parse_and_format_roundtrip():
    a = TernarySet.from_indices(3, [2, 4, 10, 13, 22])
    text = format_set_text(a)
    assert parse_set_text(text) == a
    assert text.startswith("dim 3\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_set_text("dim 2\n0 1\n0 1 2\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_set_text("0 1 2\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_set_text("dim 2\n0 5\n")
    assert err.value.line == 2
    # comments and blank lines do not shift the count
    with pytest.raises(ParseError) as err:
        parse_set_text("# header\n\ndim 2\n# point\n3 1\n")
    assert err.value.line == 5
