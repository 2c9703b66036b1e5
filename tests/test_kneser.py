"""Sumset lower bound, covering corollaries, stabilizer witnesses."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from gf3sets import (
    HypothesisError,
    TernarySet,
    difference_cover_check,
    find_stabilizer_witness,
    full_sumset_check,
    kneser_check,
)
from gf3sets import canon
from gf3sets.kneser import (
    _bound_bits,
    _pair_bits,
    sample_kneser_pair,
    sample_witness_triple,
)


def _trits(a):
    return [oracles.to_trits(i, a.dim) for i in a.indices()]


def _random_nonempty(rng, n):
    size = rng.randrange(1, 3**n + 1)
    return TernarySet.from_indices(n, rng.sample(range(3**n), size))


def _assert_bound_matches_oracle(a, b):
    """kneser_check's quantities against the oracle; returns |K|."""
    r = kneser_check(a, b)
    w = r.witness
    sizes = oracles.kneser_sizes(_trits(a), _trits(b), a.dim)
    assert (w["sumset"], w["a_plus_k"], w["b_plus_k"], w["k"]) == sizes
    assert r.status == "holds"
    assert w["sumset"] >= w["a_plus_k"] + w["b_plus_k"] - w["k"]
    assert w["equality"] == (
        w["sumset"] == w["a_plus_k"] + w["b_plus_k"] - w["k"]
    )
    return w["k"]


def test_bound_quantities_match_oracle():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randrange(1, 4)
        _assert_bound_matches_oracle(_random_nonempty(rng, n), _random_nonempty(rng, n))


def test_bound_quantities_match_oracle_on_sampled_pairs():
    # uniform random pairs almost never have a proper stabilizer; the
    # sampler's periodic branch does, so |A+K| and |B+K| differ from |A|,
    # |B| and from the whole space here
    rng = random.Random(17)
    proper = 0
    for i in range(300):
        n = 1 + i % 3
        a, b = sample_kneser_pair(rng, n)
        proper += 1 < _assert_bound_matches_oracle(a, b) < 3**n
    assert proper >= 3


@st.composite
def nonempty_pairs(draw):
    n = draw(st.integers(1, 3))
    a, b = (draw(st.integers(1, 2**3**n - 1)) for _ in range(2))
    return n, a, b


@settings(max_examples=200, deadline=None)
@given(nonempty_pairs())
@example((2, 0b1, 0b1))  # A + B = {0}: K = {0}
@example((1, 0b11, 0b11))  # A + B = G: K = G
@example((3, 0b1, 2**27 - 1))
@example((2, 0b1, 0b111))  # A + B = K, a line: |A + K| = 3 > |A| = 1
@example((3, 0b1001, 0b111))  # K a line, A on two of its cosets
def test_bound_bits_match_pairwise_sums(case):
    n, a, b = case
    s, a_plus_k, b_plus_k, k, holds = _bound_bits(a, b, n)
    vecs = lambda bits: _trits(TernarySet(n, bits))
    assert (s, a_plus_k, b_plus_k, k) == oracles.kneser_sizes(vecs(a), vecs(b), n)
    assert holds == (s >= a_plus_k + b_plus_k - k)


def test_equality_and_strict_cases():
    coset = TernarySet.from_indices(2, [1, 4, 7])  # e_0 + span{e_1}
    r = kneser_check(coset, coset)
    assert r.status == "holds" and r.witness["equality"]

    a = TernarySet.from_indices(2, [0, 1])
    b = TernarySet.from_indices(2, [0, 3])
    r = kneser_check(a, b)
    assert r.status == "holds" and not r.witness["equality"]
    assert r.witness["sumset"] == 4 and r.witness["k"] == 1


def test_bound_input_guards():
    a = TernarySet.from_indices(2, [1])
    with pytest.raises(ValueError):
        kneser_check(a, TernarySet.empty(2))
    with pytest.raises(ValueError):
        kneser_check(TernarySet.empty(2), a)
    with pytest.raises(ValueError):
        kneser_check(a, TernarySet.from_indices(3, [1]))


def test_hypothesis_error_codes():
    n1 = lambda *idx: TernarySet.from_indices(1, idx)
    with pytest.raises(HypothesisError) as e:
        find_stabilizer_witness(n1(1), n1(1), TernarySet.empty(1))
    assert e.value.code == "empty-C"
    with pytest.raises(HypothesisError) as e:
        find_stabilizer_witness(n1(0), n1(0), n1(0))
    assert e.value.code == "sumset-meets-C"
    with pytest.raises(HypothesisError) as e:
        find_stabilizer_witness(n1(1), n1(1), n1(0))
    assert e.value.code == "mass-too-small"


def test_witness_on_sampled_triples():
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randrange(1, 4)
        a, b, c = sample_witness_triple(rng, n)
        w = find_stabilizer_witness(a, b, c)
        kbits = w.k.members_bits
        # K is a subgroup and the coset is a K-coset holding all of C
        assert w.k.is_linear
        assert w.coset_of_c.direction() == w.k
        assert c.bits & ~w.coset_of_c.members_bits == 0
        k = [oracles.to_trits(i, n) for i in w.k.members().indices()]
        apk = len(oracles.sumset(_trits(a), k)) if a.size else 0
        bpk = len(oracles.sumset(_trits(b), k)) if b.size else 0
        assert apk + bpk == 3**n
        assert set(w.to_json()) == {"K", "coset_of_C"}


def test_degenerate_side_gets_the_whole_group():
    a = TernarySet.empty(2)
    b = TernarySet.full(2)
    c = TernarySet.from_indices(2, [0])
    w = find_stabilizer_witness(a, b, c)
    assert w.k.dim == 2 and w.k.members_bits == b.bits
    w2 = find_stabilizer_witness(b, a, c)
    assert w2.k.dim == 2


def test_full_sumset_boundaries():
    rng = random.Random(13)
    a = TernarySet.from_indices(2, rng.sample(range(9), 5))
    b = TernarySet.from_indices(2, rng.sample(range(9), 4))
    assert full_sumset_check(a, b).status == "not_applicable"  # 5 + 4 = 9
    b6 = TernarySet.from_indices(2, rng.sample(range(9), 6))
    r = full_sumset_check(a, b6)
    assert r.status == "holds"
    with pytest.raises(ValueError):
        full_sumset_check(a, TernarySet.full(3))


def test_difference_cover_boundaries():
    rng = random.Random(14)
    a9 = TernarySet.from_indices(3, rng.sample(range(27), 9))
    assert difference_cover_check(a9).status == "not_applicable"  # 3 * 9 = 27
    a10 = TernarySet.from_indices(3, rng.sample(range(27), 10))
    r = difference_cover_check(a10)
    assert r.status == "holds"
    got = oracles.difference_set(_trits(a10), _trits(a10))
    assert len(got) == 27


def test_pair_sampler_produces_usable_pairs():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randrange(1, 4)
        a, b = sample_kneser_pair(rng, n)
        assert a.dim == b.dim == n
        assert a.size and b.size
        kneser_check(a, b)


def test_triple_sampler_respects_preconditions():
    # the sampler re-checks its own output and would raise on a bad draw;
    # drawing many confirms both branches stay inside the hypotheses
    rng = random.Random(16)
    empties = 0
    for _ in range(300):
        n = rng.randrange(1, 4)
        a, b, c = sample_witness_triple(rng, n)
        empties += a.size == 0 or b.size == 0
        assert c.size
    assert empties  # the degenerate branch was exercised


@pytest.mark.parametrize(
    "sampler, n",
    [
        (sample_kneser_pair, -1),
        (sample_kneser_pair, 13),
        (sample_witness_triple, -1),
        (sample_witness_triple, 0),
        (sample_witness_triple, 13),
    ],
)
def test_samplers_refuse_dimensions_they_cannot_serve_before_drawing(sampler, n):
    rng = random.Random(3)
    before = rng.getstate()
    with pytest.raises(ValueError):
        sampler(rng, n)
    assert rng.getstate() == before


def _reference_set(rng, n):
    """One set of sample_kneser_pair, drawn as its docstring's recipe on
    trit vectors: a union of 1-3 cosets of a random subspace plus 0-2
    points, a third of the time, else a random nonempty subset."""
    size = 3**n
    if rng.random() < 1 / 3:
        k = rng.randrange(0, n + 1)
        rows = [oracles.to_trits(g, n) for g in canon.random_basis(n, rng)[:k]]
        v = oracles.span(rows, n)
        out = set()
        for _ in range(rng.randrange(1, 4)):
            t = oracles.to_trits(rng.randrange(size), n)
            out |= {oracles.to_index(oracles.add(x, t)) for x in v}
        for _ in range(rng.randrange(0, 3)):
            out.add(rng.randrange(size))
        return out
    return set(rng.sample(range(size), rng.randrange(1, size + 1)))


def _reference_triple(rng, n):
    """sample_witness_triple's draws on index sets, the cosets of the
    normal read off the dot product."""
    size, q = 3**n, 3 ** (n - 1)
    if rng.random() < 0.25:
        spare = rng.randrange(0, (size - 1) // 2 + 1)
        big = set(rng.sample(range(size), size - spare))
        c = set(rng.sample(range(size), rng.randrange(2 * spare + 1, size + 1)))
        a, b = (set(), big) if rng.random() < 0.5 else (big, set())
        return a, b, c
    normal = oracles.to_trits(rng.randrange(1, size), n)
    level = [[] for _ in range(3)]
    for v in oracles.all_vectors(n):
        level[sum(x * y for x, y in zip(v, normal)) % 3].append(oracles.to_index(v))
    level = [sorted(lv) for lv in level]
    a_lab, a2_lab = rng.sample(range(3), 2)
    b_lab = rng.randrange(3)
    (c_lab,) = {0, 1, 2} - {(a_lab + b_lab) % 3, (a2_lab + b_lab) % 3}
    delta = rng.randrange((q + 2) // 2, q + 1)
    a = set(level[a_lab]) | set(rng.sample(level[a2_lab], delta))
    csize = rng.randrange(max(1, 2 * q - 2 * delta + 1), q + 1)
    return a, set(level[b_lab]), set(rng.sample(level[c_lab], csize))


def _bits(indices):
    return sum(1 << i for i in indices)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bit_samplers_draw_like_the_public_samplers(n):
    # equal seeds give equal sets and leave the generators in equal states:
    # the pair sampler's bits, both public samplers and a reference draw
    for seed in range(60):
        rngs = [random.Random(seed) for _ in range(3)]
        a, b = _reference_set(rngs[0], n), _reference_set(rngs[0], n)
        want = (_bits(a), _bits(b))
        assert _pair_bits(rngs[1], n) == want
        assert tuple(s.bits for s in sample_kneser_pair(rngs[2], n)) == want
        assert rngs[0].getstate() == rngs[1].getstate() == rngs[2].getstate()

        rngs = [random.Random(seed) for _ in range(2)]
        want = tuple(_bits(s) for s in _reference_triple(rngs[0], n))
        assert tuple(s.bits for s in sample_witness_triple(rngs[1], n)) == want
        assert rngs[0].getstate() == rngs[1].getstate()
