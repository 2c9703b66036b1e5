"""Acceptance criteria, one test per criterion with its runtime budget.

Each test asserts the mathematical claim and that the work fits the stated
time budget on this machine.  Randomized parts use fixed seeds.
"""

import hashlib
import itertools
import json
import random
import time

import oracles
from gf3sets import (
    TernarySet,
    canonical_form,
    check_lemma,
    cli,
    compute_t,
    enumerate_maximal_sumfree,
    enumerate_primitive,
    find_stabilizer_witness,
    is_maximal_sum_free,
    kneser_check,
    lev_construction,
    run_suite,
    validate_certificate,
    verify_main_theorem,
)
from gf3sets import halves, search
from gf3sets import subspaces as sub
from gf3sets.core import is_sum_free, sym_group_bits
from gf3sets.kneser import sample_kneser_pair, sample_witness_triple
from gf3sets.primitive import _primitive_superset


def test_criterion_1_dim1_classification(capsys):
    t0 = time.monotonic()
    assert cli.main(["enumerate-primitive", "--dim", "1", "--format", "json"]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert sorted(listed["sets"]) == [[1], [2]]
    assert cli.main(["verify-main", "--dim", "1"]) == 0
    assert "VERIFIED" in capsys.readouterr().out
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_dim2_classification():
    t0 = time.monotonic()
    lines = {h.members_bits for h in sub.enumerate_hyperplanes(2, avoid_origin=True)}
    assert len(lines) == 8
    assert {s.bits for s in enumerate_primitive(2)} == lines

    # independent brute force over every one of the 512 subsets
    brute = set()
    for bits in range(1 << 9):
        trits = [oracles.to_trits(i, 2) for i in range(9) if bits >> i & 1]
        if len(trits) >= 2 and oracles.is_maximal_sum_free(trits, 2):
            brute.add(bits)
    assert brute == lines

    assert verify_main_theorem(2).verified
    assert compute_t(2) == 0
    assert time.monotonic() - t0 < 1.0


def test_criterion_3_dim3_theorem():
    t0 = time.monotonic()
    verdict = verify_main_theorem(3)
    assert verdict.verified

    report = enumerate_maximal_sumfree(3, min_size=5)
    assert set(report.counts_by_size) == {5, 9}
    assert report.counts_by_size == {5: 1872, 9: 26}
    assert report.orbit_counts_by_size[5] == 1

    # the one size-5 orbit is the orbit of the explicit construction
    a, _ = lev_construction(3)
    (rep5,) = [s for s, _, _ in report.representatives if len(s) == 5]
    assert tuple(canonical_form(a).indices()) == rep5

    assert compute_t(3) == 5 == (3**2 + 1) // 2
    assert time.monotonic() - t0 < 60.0


def test_criterion_4_five_subset_sweep():
    t0 = time.monotonic()
    lines = [e.members_bits for e in sub.enumerate_affine_subspaces(sub.full_space(3), 1)]
    total = checked = 0
    for combo in itertools.combinations(range(27), 5):
        total += 1
        bits = 0
        for i in combo:
            bits |= 1 << i
        a = TernarySet(3, bits)
        if not is_sum_free(a):
            continue
        checked += 1
        assert _primitive_superset(a) is not None, combo
        assert any(bits & l == l for l in lines), combo
    assert total == 80730
    assert checked == 5148  # sum-free survivors of the pre-filter
    assert time.monotonic() - t0 < 300.0


def test_criterion_5_dim4_verification(tmp_path):
    t0 = time.monotonic()
    ck = str(tmp_path / "dim4.json")
    fresh = enumerate_maximal_sumfree(4, min_size=14, checkpoint=ck)
    assert fresh.counts_by_size == {14: 17_694_720, 15: 74_880, 27: 80}
    assert fresh.orbit_counts_by_size == {14: 4, 15: 1, 27: 1}
    assert fresh.node_count == 1488

    # resume from a frontier-only state and from the finished state
    front = str(tmp_path / "front.json")
    tasks, shallow, nodes = search._expand_frontier(4, 14, True, 1)
    assert len(tasks) >= 8
    search._save_checkpoint(front, 4, 14, True, tasks, shallow, nodes)
    assert enumerate_maximal_sumfree(4, min_size=14, checkpoint=front) == fresh

    verdict = verify_main_theorem(4, checkpoint=ck)
    assert verdict.verified
    assert verdict.forward_checked == 6
    assert verdict.details["hyperplane_orbit_size"] == 80
    assert verdict.details["orbit_reps_match"]

    assert compute_t(4, checkpoint=ck) == 14 == (3**3 + 1) // 2
    assert time.monotonic() - t0 < 8 * 3600.0


def test_criterion_6_explicit_construction():
    t0 = time.monotonic()
    for n in range(3, 9):
        a, cert = lev_construction(n)
        assert a.size == (3 ** (n - 1) + 1) // 2
        assert is_maximal_sum_free(a)
        assert sym_group_bits(a.bits, n) == 1  # aperiodic
        validate_certificate(cert)
        assert cert.member_bits == a.bits
    assert time.monotonic() - t0 < 10.0


def test_criterion_7_lemma_batteries():
    t0 = time.monotonic()

    # (a) size formula, (b) no zero in 4A, (c) hyperplane bound: every
    # primitive set below dimension 4, orbit representatives in dimension 4
    # (size, symmetry group order and hyperplane profiles are invariants)
    pools = [enumerate_primitive(n) for n in (1, 2, 3)]
    pools.append(enumerate_primitive(4, up_to_iso=True))
    bound_applicable = 0
    for pool in pools:
        for a in pool:
            assert check_lemma("card_formula", a).status == "holds"
            assert check_lemma("four_sum", a).status == "holds"
            r = check_lemma("hyperplane_bound", a)
            assert r.status != "counterexample"
            bound_applicable += r.status == "holds"
    assert bound_applicable == 1872 + 5  # derived sets at n=3, orbit reps at n=4

    # (d) every half over a point core in a dimension-3 hyperplane
    # contains a line; 16 halves per configuration
    for h in sub.enumerate_hyperplanes(3, avoid_origin=True):
        for idx in h.members().indices():
            u = sub.affine_subspace(3, (), idx)
            assert len(halves.enumerate_halves(h, u)) == 16
            assert halves.check_half_fact(h, u)

    # (e) sumset lower bound on 10^4 seeded pairs, oracle cross-check on 100
    rng = random.Random(20260816)
    for i in range(10_000):
        n = i % 3 + 1
        a, b = sample_kneser_pair(rng, n)
        r = kneser_check(a, b)
        assert r.status == "holds"
        if i < 100:
            ta = [oracles.to_trits(x, n) for x in a.indices()]
            tb = [oracles.to_trits(x, n) for x in b.indices()]
            s = oracles.sumset(ta, tb)
            k = oracles.sym_group(s, n)
            assert r.witness["sumset"] == len(s)
            assert r.witness["k"] == len(k)
            assert r.witness["a_plus_k"] == len(oracles.sumset(ta, k))
            assert r.witness["b_plus_k"] == len(oracles.sumset(tb, k))

    # (f) stabilizer witness on 10^3 seeded hypothesis-satisfying triples
    for i in range(1_000):
        n = i % 3 + 1
        a, b, c = sample_witness_triple(rng, n)
        w = find_stabilizer_witness(a, b, c)
        assert c.bits & ~w.coset_of_c.members_bits == 0

    assert time.monotonic() - t0 < 600.0


# sha256 prefixes of the standard suite's sorted-key JSON, by seed
SUITE_DIGESTS = {0: "a7d27f6460e214d7", 7: "3036fff93f336c5a"}


def test_criterion_8_deterministic_reports():
    one = run_suite("standard", jobs=1, seed=0)
    eight = run_suite("standard", jobs=8, seed=0)
    assert one.passed, [c.to_json() for c in one.checks if c.status != "holds"]
    blob_one = json.dumps(one.to_json(), sort_keys=True).encode()
    blob_eight = json.dumps(eight.to_json(), sort_keys=True).encode()
    assert blob_one == blob_eight
    assert hashlib.sha256(blob_one).hexdigest()[:16] == SUITE_DIGESTS[0]


def test_criterion_8_report_digest_at_another_seed():
    report = run_suite("standard", jobs=2, seed=7)
    blob = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == SUITE_DIGESTS[7]
