"""Suite runner mechanics: registry, seeding, crash capture, report shape."""

import os

import pytest

from gf3sets import run_suite
from gf3sets import statements, suite
from gf3sets.statements import CheckResult


def test_unknown_suite_name():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_registry_and_suite_contents():
    assert set(suite._STANDARD) <= set(suite._REGISTRY)
    assert set(suite._EXTENDED) == set(suite._REGISTRY)
    assert "verify_main_4" not in suite._STANDARD
    assert "verify_main_4" in suite._EXTENDED
    assert "dim4_sweep" in suite._EXTENDED


def test_every_lemma_has_one_suite_check():
    lemma_checks = [name for name in suite._STANDARD if name.startswith("lemma_")]
    assert lemma_checks == [f"lemma_{lid}" for lid in statements.statement_ids("lemma")]
    assert suite._REGISTRY["lemma_dense_affine"][0] is suite._chk_lemma_dense_affine
    assert (
        suite._REGISTRY["lemma_disjoint_transfer"][0]
        is suite._chk_lemma_disjoint_transfer
    )


def test_crashing_check_is_a_counterexample(monkeypatch):
    def explode(rng):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(suite._REGISTRY, "tiny_crash", (explode, {}))
    monkeypatch.setattr(suite, "_STANDARD", ("tiny_crash",))
    rep = run_suite("standard")
    assert not rep.passed and rep.exit_code == 1
    (c,) = rep.checks
    assert c.status == "counterexample"
    assert "ZeroDivisionError" in c.detail


def test_not_applicable_does_not_pass(monkeypatch):
    def shrug(rng):
        return CheckResult.not_applicable("tiny_na", "nothing to say")

    monkeypatch.setitem(suite._REGISTRY, "tiny_na", (shrug, {}))
    monkeypatch.setattr(suite, "_STANDARD", ("tiny_na",))
    rep = run_suite("standard")
    assert not rep.passed  # a suite passes only when every check holds


def test_seed_and_samples_reach_the_checks(monkeypatch):
    def record(rng, samples=3):
        return CheckResult.holds("record", f"{rng.random():.6f}/{samples}")

    monkeypatch.setitem(suite._REGISTRY, "record", (record, {}))
    monkeypatch.setattr(suite, "_STANDARD", ("record",))
    a = run_suite("standard", seed=5)
    assert a.checks == run_suite("standard", seed=5).checks
    assert a.checks != run_suite("standard", seed=6).checks
    assert a.checks[0].detail.endswith("/3")
    assert run_suite("standard", seed=5, samples=9).checks[0].detail.endswith("/9")


def test_workers_are_capped_at_the_check_count(monkeypatch):
    log = []

    class RecordingPool:
        """Records max_workers and runs the checks in-process."""

        def __init__(self, max_workers):
            log.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    def ok(rng):
        return CheckResult.holds("ok")

    monkeypatch.setitem(suite._REGISTRY, "ok_a", (ok, {}))
    monkeypatch.setitem(suite._REGISTRY, "ok_b", (ok, {}))
    monkeypatch.setattr(suite, "_STANDARD", ("ok_a", "ok_b"))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 1_000_000)
    rep = run_suite("standard", jobs=100_000)
    assert log == [2]
    assert rep.checks == run_suite("standard", jobs=1).checks


def test_one_cpu_runs_the_checks_in_process(monkeypatch):
    def no_pool(max_workers):
        raise AssertionError(f"a pool of {max_workers} workers was started")

    def ok(rng):
        return CheckResult.holds("ok")

    monkeypatch.setitem(suite._REGISTRY, "ok_a", (ok, {}))
    monkeypatch.setitem(suite._REGISTRY, "ok_b", (ok, {}))
    monkeypatch.setattr(suite, "_STANDARD", ("ok_a", "ok_b"))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run_suite("standard", jobs=8).checks == run_suite("standard", jobs=1).checks


def test_report_json_shape(monkeypatch):
    def ok(rng):
        return CheckResult.holds("tiny_ok")

    monkeypatch.setitem(suite._REGISTRY, "tiny_ok", (ok, {}))
    monkeypatch.setattr(suite, "_STANDARD", ("tiny_ok",))
    obj = run_suite("standard", seed=2).to_json()
    assert set(obj) == {"suite", "seed", "passed", "checks"}
    assert obj["seed"] == 2 and obj["passed"] is True
    assert obj["checks"][0]["name"] == "tiny_ok"


def test_timings_cover_each_check_outside_the_json(monkeypatch):
    # real registry checks, so worker processes need no patched state
    names = ("t_value_1", "t_value_2", "lev_3", "half_fact")
    monkeypatch.setattr(suite, "_STANDARD", names)
    one = run_suite("standard", jobs=1, seed=4)
    two = run_suite("standard", jobs=2, seed=4)
    assert one.passed
    assert one.to_json() == two.to_json()
    assert "timings" not in one.to_json()
    for rep in (one, two):
        assert [name for name, _ in rep.timings] == list(names)
        assert all(s >= 0.0 for _, s in rep.timings)
    assert one == two  # timings take no part in comparison
