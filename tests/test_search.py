"""Exhaustive search engine, verification driver, constructions, propositions."""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import gf3sets
from gf3sets import (
    TernarySet,
    check_proposition,
    classify_set,
    compute_t,
    enumerate_maximal_sumfree,
    is_maximal_sum_free,
    lev_construction,
    validate_certificate,
    verify_main_theorem,
)
from gf3sets import canon, primitive, search
from gf3sets import subspaces as sub
from gf3sets.core import blocked_cover_bits, is_sum_free
from gf3sets.space import iter_bits, orbit_bits, space


def test_reduced_and_unreduced_engines_agree():
    for n in (1, 2, 3):
        red = enumerate_maximal_sumfree(n, 1, up_to_iso=True)
        plain = enumerate_maximal_sumfree(n, 1, up_to_iso=False)
        assert red.counts_by_size == plain.counts_by_size
        assert red.orbit_counts_by_size == plain.orbit_counts_by_size
        assert red.counts_by_size_sym == plain.counts_by_size_sym
        assert red.representatives == plain.representatives
        assert (red.engine, plain.engine) == ("reduced", "unreduced")


@pytest.mark.parametrize("n", [1, 2])
def test_census_matches_brute_force(n):
    report = enumerate_maximal_sumfree(n, 1, up_to_iso=False)
    brute = oracles.maximal_sumfree_sets(n, 1)
    assert report.counts_by_size == dict(Counter(len(s) for s in brute))
    assert sum(report.counts_by_size.values()) == len(brute)


def _check_symmetry_pruning(bits: int, n: int) -> tuple[int, int]:
    """Prune every child of a set least in its orbit, as the search does;
    no dropped child may be least in its orbit.  Returns the numbers of
    children dropped outside the span (rule i) and inside it (rule ii)."""
    free = ((1 << 3**n) - 1) & -(1 << bits.bit_length())
    kept = search._prune_by_symmetry(bits, free, canon._walk(bits, n))
    assert kept & ~free == 0
    dropped = free & ~kept
    for v in iter_bits(dropped):
        assert not canon.is_lexmin_bits(bits | 1 << v, n), (bits, v)
    m = 1
    while bits >> m:
        m *= 3
    return (dropped >> m).bit_count(), (dropped & (1 << m) - 1).bit_count()


def test_symmetry_pruning_drops_no_lexmin_child_dim2_exhaustively():
    outside = inside = 0
    for bits in range(1 << 9):
        if canon.is_lexmin_bits(bits, 2):
            i, ii = _check_symmetry_pruning(bits, 2)
            outside += i
            inside += ii
    assert outside > 0 and inside > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_symmetry_pruning_drops_no_lexmin_child(n, data):
    points = data.draw(st.lists(st.integers(0, 3**n - 1), max_size=6))
    bits = canon.canonical_form_bits(TernarySet.from_indices(n, points).bits, n)
    _check_symmetry_pruning(bits, n)


# Unions of flats and points have large stabilizers, so their children
# inherit automorphisms; {e_0, e_1} has the swap, which fixes e_0 + e_1.
@st.composite
def lexmin_parents(draw, n):
    sp = space(n)
    point = st.integers(0, 3**n - 1)
    bits = 0
    for _ in range(draw(st.integers(0, 2))):
        bits |= sp.span_bits(draw(st.lists(point, max_size=n - 1)), draw(point))
    for p in draw(st.lists(point, max_size=3)):
        bits |= 1 << p
    return canon.canonical_form_bits(bits, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_child_walks_from_inherited_tables_and_automorphisms(n):
    sp = space(n)
    inherited = 0  # accepted children whose walk started with known automorphisms

    @settings(max_examples=40 if n < 4 else 25, deadline=None)
    @given(lexmin_parents(n))
    @example(1 << 1 | 1 << 3)
    def check(bits):
        nonlocal inherited
        parent = search._replay(sp, bits, True)
        parent_autos = parent[2]
        for v in range(bits.bit_length(), sp.size):
            child = bits | 1 << v
            node = search._child(sp, parent, v, True)
            accepted = node is not None
            assert accepted == canon.is_lexmin_bits(child, n), (bits, v)
            if not accepted:
                continue
            autos = node[2]
            inside = v < 3 ** canon._span_dim(bits)
            known = [a for a in parent_autos if a[v] == v] if inside else []
            assert autos[:len(known)] == known
            inherited += len(known) > 0
            m = 3 ** canon._span_dim(child)
            for a in autos:
                assert sorted(a) == list(range(sp.size))
                assert a[m:] == list(range(m, sp.size))
                assert sum(1 << a[x] for x in iter_bits(child)) == child
                for p in sp.powers:
                    if p < m:
                        assert all(a[sp.add(x, p)] == sp.add(a[x], a[p]) for x in range(m))
            want = canon._walk(child, n)
            for x in range(m):
                assert orbit_bits(1 << x, autos) == orbit_bits(1 << x, want), (bits, v, x)

    check()
    assert inherited > 0


@pytest.mark.parametrize("n, min_size, limit, reduced", [
    pytest.param(3, 1, None, True, id="3-1-None"),
    pytest.param(3, 1, None, False, id="3-1-None-unreduced"),
    pytest.param(4, 14, 300, True, id="4-14-300"),
])
def test_search_nodes_carry_their_walk_tables(n, min_size, limit, reduced):
    """Every node holds its walk tables and its blocked cover, and replaying
    its set from the empty set rebuilds it field for field."""
    sp = space(n)
    stack = [search._root(sp, reduced)]
    found: dict = {}
    visited = 0
    while stack and visited != limit:
        node = stack.pop()
        bits, cover, _, (plus, minus) = node
        neg_bits = sp.neg_set_bits(bits)
        assert plus == [sp.translate_bits(bits, sp.neg[x]) for x in range(sp.size)]
        assert minus == [sp.translate_bits(neg_bits, x) for x in range(sp.size)]
        assert cover == blocked_cover_bits(TernarySet(n, bits))
        assert search._replay(sp, bits, reduced) == node
        visited += 1
        stack += search._expand(sp, min_size, reduced, node, found)
    if limit is None:
        limit = enumerate_maximal_sumfree(n, min_size, up_to_iso=reduced).node_count
    assert visited == limit


def test_a_search_run_retains_only_what_the_space_keeps():
    # a run's span and read tables and its nodes' tables go when it returns;
    # the translation rows and point rows are kept by the space by design.
    # A fresh interpreter, so that no cache an earlier test filled escapes
    # the count
    code = (
        "import tracemalloc\n"
        "import gf3sets.space\n"
        "from gf3sets import enumerate_maximal_sumfree\n"
        "tracemalloc.start()\n"
        "enumerate_maximal_sumfree(4, 14)\n"
        "snapshot = tracemalloc.take_snapshot()\n"
        "rest = snapshot.filter_traces(\n"
        "    [tracemalloc.Filter(False, gf3sets.space.__file__)])\n"
        "for stat in rest.statistics('filename'):\n"
        "    print(stat.size, stat.traceback[0].filename)\n"
    )
    src = str(Path(gf3sets.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    retained = subprocess.run(
        [sys.executable, "-c", code], check=True, timeout=300,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert sum(int(line.split()[0]) for line in retained.splitlines()) < 1 << 14, retained


def test_dim4_lexmin_verdicts_are_pinned(monkeypatch):
    """The dim-4 search asks its lexmin tests in a fixed order, and a faster
    walk must answer each the same: the digest of the (set, verdict)
    sequence was taken before the fixed-mode split read fewer points."""
    log = []
    lexmin = canon.is_lexmin_bits

    def logged(bits, n, *args):
        verdict = lexmin(bits, n, *args)
        log.append((bits, verdict))
        return verdict

    monkeypatch.setattr(canon, "is_lexmin_bits", logged)
    assert enumerate_maximal_sumfree(4, 14).node_count == 1488
    assert len(log) == 2648
    assert sum(verdict for _, verdict in log) == 1537
    text = "".join(f"{bits:x} {int(verdict)}\n" for bits, verdict in log)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a36252bc599ab41bd638cd2d6a18bc75d7503f7251fdb48c3e58cf272c6084c3")


def test_known_census_dim3():
    report = enumerate_maximal_sumfree(3, 1)
    assert report.counts_by_size == {4: 468, 5: 1872, 9: 26}
    assert report.orbit_counts_by_size == {4: 1, 5: 1, 9: 1}
    by_size = {len(s): stab for s, stab, _ in report.representatives}
    assert by_size[4] == 24
    assert report.counts_by_size_sym[(9, 2)] == 26
    assert report.counts_by_size_sym[(5, 0)] == 1872

    cut = enumerate_maximal_sumfree(3, 6)
    assert cut.counts_by_size == {9: 26}
    assert len(cut.representatives) == 1


def test_argument_guards():
    with pytest.raises(ValueError):
        enumerate_maximal_sumfree(0)
    with pytest.raises(ValueError):
        enumerate_maximal_sumfree(5)
    with pytest.raises(ValueError):
        enumerate_maximal_sumfree(3, min_size=0)
    with pytest.raises(ValueError):
        enumerate_maximal_sumfree(4, up_to_iso=False)


def test_report_json_shape_and_equality():
    report = enumerate_maximal_sumfree(2, 1)
    obj = report.to_json()
    assert "wall_time_s" not in obj
    assert obj["counts_by_size"] == {"3": 8}
    assert all("," in k for k in obj["counts_by_size_sym"])
    rep0 = obj["representatives"][0]
    assert set(rep0) == {"set", "size", "stabilizer_order", "sym_dim"}
    # timing never participates in comparisons
    twin = dataclasses.replace(report, wall_time_s=-1.0)
    assert twin == report


def test_walks_by_mode_are_pinned(monkeypatch):
    # One walk serves lexmin tests, stabilizers and canonical forms.  A
    # reduced report takes each found set as its own canonical form and
    # makes one walk for its stabilizer; an unreduced report reads form and
    # stabilizer off each orbit's closure and makes no walk; _orbit_reps
    # makes the walks of one descent per stream set whose key is new, and
    # one walk per new form.
    walks = 0
    real_walk, real_build = canon._walk, search._build_report

    def walk(*args, **kwargs):
        nonlocal walks
        walks += 1
        return real_walk(*args, **kwargs)

    def build(*args):
        nonlocal walks
        walks = 0  # the search's own lexmin tests are not the report's
        return real_build(*args)

    monkeypatch.setattr(canon, "_walk", walk)
    monkeypatch.setattr(search, "_build_report", build)
    enumerate_maximal_sumfree(4, 14)
    assert walks == 6
    enumerate_maximal_sumfree(3, 1, up_to_iso=False)
    assert walks == 0
    primitive._orbit_reps.cache_clear()
    walks = 0
    primitive._orbit_reps(4)
    assert walks == 37


def test_an_unreduced_report_refuses_an_orbit_it_did_not_find_whole():
    report = enumerate_maximal_sumfree(3, 1, up_to_iso=False)
    found = dict.fromkeys(
        g for s, _, _ in report.representatives
        for g in canon.orbit_of_bits(TernarySet.from_indices(3, s).bits, 3)
    )
    assert search._build_report(3, 1, False, found, report.node_count, 0.0) == report
    for form in (TernarySet.from_indices(3, s).bits for s, _, _ in report.representatives):
        for dropped in (form, max(canon.orbit_of_bits(form, 3))):
            part = {b: None for b in found if b != dropped}
            with pytest.raises(RuntimeError, match="leaves the found sets"):
                search._build_report(3, 1, False, part, 0, 0.0)


def _canonical_json(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


def test_jobs_do_not_change_the_report():
    one = enumerate_maximal_sumfree(3, 5, jobs=1)
    for jobs in (2, 8):
        other = enumerate_maximal_sumfree(3, 5, jobs=jobs)
        assert other == one
        assert _canonical_json(other) == _canonical_json(one)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    def __init__(self, log, max_workers):
        log.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.fixture
def pool_log(monkeypatch):
    """Runs the search's worker pools in-process; lists their max_workers.
    The machine reports more CPUs than any test has tasks."""
    log = []
    monkeypatch.setattr(os, "cpu_count", lambda: 1_000_000)
    monkeypatch.setattr(
        "concurrent.futures.ProcessPoolExecutor",
        lambda max_workers: _RecordingPool(log, max_workers),
    )
    return log


def test_workers_are_capped_at_the_task_count(pool_log):
    pending = search._expand_frontier(3, 5, True, 100_000)[0]
    assert 1 < len(pending) < 100_000
    report = enumerate_maximal_sumfree(3, 5, jobs=100_000)
    assert pool_log == [len(pending)]
    assert report == enumerate_maximal_sumfree(3, 5, jobs=1)


@pytest.mark.parametrize("cpus,want", [(2, [2]), (1, []), (None, [])])
def test_workers_are_capped_at_the_cpu_count(monkeypatch, pool_log, cpus, want):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert len(search._expand_frontier(3, 5, True, 100_000)[0]) > 2
    report = enumerate_maximal_sumfree(3, 5, jobs=100_000)
    assert pool_log == want
    assert report == enumerate_maximal_sumfree(3, 5, jobs=1)


@pytest.mark.parametrize("n,up_to_iso", [(2, False), (3, False), (3, True)])
def test_frontier_width_does_not_change_the_report(pool_log, n, up_to_iso):
    widths = {len(search._expand_frontier(n, 1, up_to_iso, jobs)[0])
              for jobs in (1, 2, 8, 100)}
    assert len(widths) > 1 or up_to_iso
    one = _canonical_json(enumerate_maximal_sumfree(n, 1, up_to_iso, jobs=1))
    for jobs in (2, 8, 100):
        assert _canonical_json(enumerate_maximal_sumfree(n, 1, up_to_iso, jobs=jobs)) == one


def test_frontier_grows_to_eight_tasks_per_job_or_until_the_tree_narrows():
    # reduced dim-4 layer widths by depth: 1, 1, 1, 2, 5, 10, 24, 58, 119, ...
    for jobs, width, nodes in ((1, 10, 10), (2, 24, 20), (8, 119, 102)):
        tasks, _, got = search._expand_frontier(4, 14, True, jobs)
        assert (len(tasks), got) == (width, nodes)
    # unreduced dim-2 layer widths: 1, 8, 24, 8
    tasks, _, nodes = search._expand_frontier(2, 1, False, 8)
    assert (len(tasks), nodes) == (8, 33)


def test_parallel_search_saves_after_every_task(monkeypatch, pool_log, tmp_path):
    log = []
    run_task, save = search._run_task, search._save_checkpoint

    def logged_run(args):
        log.append("run")
        return run_task(args)

    def logged_save(path, n, min_size, reduced, pending, found, nodes):
        log.append(("save", len(pending)))
        save(path, n, min_size, reduced, pending, found, nodes)

    monkeypatch.setattr(search, "_run_task", logged_run)
    monkeypatch.setattr(search, "_save_checkpoint", logged_save)
    tasks = search._expand_frontier(3, 5, True, 2)[0]
    assert len(tasks) > 1
    enumerate_maximal_sumfree(3, 5, jobs=2, checkpoint=str(tmp_path / "state.json"))
    assert pool_log == [2]
    want = [("save", len(tasks))]
    for left in range(len(tasks) - 1, -1, -1):
        want += ["run", ("save", left)]
    assert log == want


@pytest.mark.parametrize("up_to_iso", [True, False])
def test_resume_from_every_prefix_of_the_pending_list(tmp_path, up_to_iso):
    fresh = _canonical_json(enumerate_maximal_sumfree(3, 5, up_to_iso))
    frontiers = {}
    for jobs in (1, 2):
        tasks, shallow, nodes = search._expand_frontier(3, 5, up_to_iso, jobs)
        frontiers[tuple(tasks)] = (shallow, nodes)
    for tasks, (shallow, nodes) in frontiers.items():
        found = dict(shallow)
        for k in range(len(tasks) + 1):
            path = str(tmp_path / f"resume-{k}.json")
            search._save_checkpoint(path, 3, 5, up_to_iso, list(tasks[k:]), found, nodes)
            resumed = enumerate_maximal_sumfree(3, 5, up_to_iso, checkpoint=path)
            assert _canonical_json(resumed) == fresh, k
            if k < len(tasks):
                got, sub_nodes = search._run_task((3, 5, up_to_iso, tasks[k]))
                found.update(dict.fromkeys(got))
                nodes += sub_nodes


def test_checkpoint_lifecycle(tmp_path):
    path = str(tmp_path / "state.json")
    fresh = enumerate_maximal_sumfree(3, 5, checkpoint=path)
    state = json.load(open(path))
    assert state["version"] == search.CHECKPOINT_VERSION
    assert state["pending"] == []
    assert state["nodes"] == fresh.node_count

    # resuming a finished run reproduces the report
    again = enumerate_maximal_sumfree(3, 5, checkpoint=path)
    assert again == fresh

    # a frontier-only checkpoint resumes to the same place
    tasks, shallow, nodes = search._expand_frontier(3, 5, True, 1)
    front = str(tmp_path / "front.json")
    search._save_checkpoint(front, 3, 5, True, tasks, shallow, nodes)
    assert enumerate_maximal_sumfree(3, 5, checkpoint=front) == fresh

    # ... as does one with half the subtrees already merged
    cut = len(tasks) // 2
    done = dict(shallow)
    done_nodes = nodes
    for t in tasks[:cut]:
        got, sub_nodes = search._run_task((3, 5, True, t))
        for b in got:
            done[b] = None
        done_nodes += sub_nodes
    half = str(tmp_path / "half.json")
    search._save_checkpoint(half, 3, 5, True, tasks[cut:], done, done_nodes)
    assert enumerate_maximal_sumfree(3, 5, checkpoint=half) == fresh


def test_checkpoint_mismatch_is_refused(tmp_path):
    path = str(tmp_path / "state.json")
    enumerate_maximal_sumfree(2, 1, checkpoint=path)
    with pytest.raises(ValueError):
        enumerate_maximal_sumfree(2, 2, checkpoint=path)
    with pytest.raises(ValueError):
        enumerate_maximal_sumfree(3, 1, checkpoint=path)

    state = json.load(open(path))
    state["version"] = 99
    json.dump(state, open(path, "w"))
    with pytest.raises(ValueError):
        enumerate_maximal_sumfree(2, 1, checkpoint=path)


@pytest.mark.parametrize("stray", ["repeat", "larger"])
def test_checkpoint_pending_must_be_distinct_roots_of_one_size(tmp_path, stray):
    # a fresh run counts 17 nodes; resumed with the first root listed twice
    # it counted 23, and with a one-point extension of it appended, 21
    tasks, shallow, nodes = search._expand_frontier(3, 5, True, 1)
    first = tasks[0]
    if stray == "repeat":
        extra = first
    else:
        extra = next(
            first | 1 << p for p in range(27)
            if not first >> p & 1
            and is_sum_free(TernarySet(3, first | 1 << p))
            and canon.is_lexmin_bits(first | 1 << p, 3)
        )
    path = str(tmp_path / "state.json")
    search._save_checkpoint(path, 3, 5, True, tasks + [extra], shallow, nodes)
    with pytest.raises(ValueError, match="checkpoint pending"):
        enumerate_maximal_sumfree(3, 5, checkpoint=path)
    search._save_checkpoint(path, 3, 5, True, tasks, shallow, nodes)
    assert enumerate_maximal_sumfree(3, 5, checkpoint=path).node_count == 17


@pytest.mark.parametrize("n,forward,backward", [(1, 1, 2), (2, 1, 8), (3, 2, 1898)])
def test_verification_small_dims(n, forward, backward):
    verdict = verify_main_theorem(n)
    assert verdict.verified
    assert verdict.forward_checked == forward
    assert verdict.backward_checked == backward
    assert verdict.counterexample is None
    assert verdict.details["orbit_reps_match"]
    obj = verdict.to_json()
    assert obj["verified"] is True and obj["n"] == n


def _backward_by_loop(n, ordered):
    """The per-set backward check that the column kernel replaced: the
    first set, in checking order, that is too small or not maximal
    sum-free, and how many sets passed before it."""
    threshold = 3**n // 6 + 1
    for checked, b in enumerate(ordered):
        if b.bit_count() < threshold or not is_maximal_sum_free(TernarySet(n, b)):
            return checked, list(iter_bits(b))
    return len(ordered), None


def _spoil(kind, b, seed):
    if kind == "drop":
        return b & (b - 1)  # loses its least point: no longer maximal
    if kind == "origin":
        return b | 1  # gains 0, and x + 0 = x
    # an image of a maximal sum-free set of 4 < 5 points
    small = TernarySet.from_indices(3, (1, 3, 9, 26)).bits
    return canon.random_gl(3, random.Random(seed)).apply_bits(small)


@pytest.mark.parametrize("n,kind", [(2, "drop"), (2, "origin"), (3, "drop"),
                                    (3, "origin"), (3, "small")])
def test_backward_verdict_matches_the_per_set_loop(n, kind, monkeypatch):
    """A listing with two bad members gets the verdict of the old loop,
    which checked the listing in _set_key order: the same set, after the
    same number of passed sets, also when lane order disagrees."""
    real = primitive._all_primitive_bits
    listing = real(n)
    key = primitive._set_key
    spoiled = [_spoil(kind, b, i) for i, b in enumerate(listing)]
    # the first pair of lanes whose spoiled sets come in the other order
    # in _set_key order, and a pair that does not
    swapped = next((i, j) for j in range(len(listing)) for i in range(j)
                   if key(spoiled[j]) < key(spoiled[i]))
    for i, j in (swapped, (0, len(listing) - 1)):
        bad = list(listing)
        bad[i], bad[j] = spoiled[i], spoiled[j]
        monkeypatch.setattr(primitive, "_all_primitive_bits",
                            lambda m, bad=tuple(bad): bad if m == n else real(m))
        monkeypatch.setattr(primitive, "_primitive_columns",
                            primitive._primitive_columns.__wrapped__)
        verdict = verify_main_theorem(n)
        monkeypatch.undo()
        checked, counterexample = _backward_by_loop(n, sorted(bad, key=key))
        assert not verdict.verified
        assert verdict.details["direction"] == "backward"
        assert (verdict.backward_checked, verdict.counterexample) == (checked, counterexample)


def test_backward_verdict_matches_the_per_set_loop_dim4(monkeypatch):
    """Two spoiled lanes of the n = 4 stream: the verdict names the first
    in stream order, as the old loop over the stream did, decoding it from
    the stream that yields the spoiled sets."""
    columns, sizes = primitive._fixed_hyperplane_family(4)
    stream = list(primitive.iter_primitive_fixed_hyperplane(4))
    columns, sizes = list(columns), dict(sizes)
    for lane in (3000, 1200):
        b = stream[lane]
        p = (b & -b).bit_length() - 1
        stream[lane] = b & ~(1 << p)
        columns[p] &= ~(1 << lane)
        sizes[b.bit_count()] &= ~(1 << lane)
        sizes[b.bit_count() - 1] = sizes.get(b.bit_count() - 1, 0) | 1 << lane
    monkeypatch.setattr(primitive, "_fixed_hyperplane_family",
                        lambda n: (tuple(columns), sizes))
    monkeypatch.setattr(primitive, "iter_primitive_fixed_hyperplane",
                        lambda n: (b for b in stream))
    verdict = verify_main_theorem(4)
    assert not verdict.verified
    assert verdict.details["direction"] == "backward"
    assert (verdict.backward_checked, verdict.counterexample) == _backward_by_loop(4, stream)
    assert verdict.backward_checked == 1200


def test_a_representative_that_does_not_recognize_fails_forward(monkeypatch):
    monkeypatch.setattr(primitive, "recognize_primitive", lambda a: None)
    verdict = verify_main_theorem(3)
    first = enumerate_maximal_sumfree(3, 5).representatives[0][0]
    assert not verdict.verified
    assert verdict.details["direction"] == "forward"
    assert (verdict.forward_checked, verdict.counterexample) == (0, list(first))


def test_a_hyperplane_orbit_short_of_every_hyperplane_fails_backward(monkeypatch):
    monkeypatch.setattr(canon, "orbit_of_bits", lambda bits, n: {bits})
    verdict = verify_main_theorem(4)
    assert not verdict.verified
    assert verdict.details["direction"] == "backward"
    assert verdict.details["failure"] == "hyperplane transitivity"
    assert verdict.details["hyperplane_orbit_size"] == 1
    assert (verdict.forward_checked, verdict.backward_checked) == (6, 0)


def test_a_missing_primitive_orbit_fails_the_orbit_comparison(monkeypatch):
    reps = sorted(primitive._orbit_reps(3))
    monkeypatch.setattr(primitive, "_orbit_reps", lambda n: frozenset(reps[1:]))
    verdict = verify_main_theorem(3)
    assert not verdict.verified
    assert verdict.details["direction"] == "orbit comparison"
    assert verdict.details["orbit_reps_match"] is False
    assert verdict.counterexample == list(iter_bits(reps[0]))
    assert (verdict.forward_checked, verdict.backward_checked) == (2, 1898)


def test_verification_guards():
    with pytest.raises(ValueError):
        verify_main_theorem(0)
    with pytest.raises(ValueError):
        verify_main_theorem(5)


def test_compute_t_small_dims():
    assert compute_t(1) == 1
    assert compute_t(2) == 0
    assert compute_t(3) == 5
    with pytest.raises(ValueError):
        compute_t(5)


def test_lev_construction_sizes_and_certificates():
    for n in range(3, 9):
        a, cert = lev_construction(n)
        assert a.size == (3 ** (n - 1) + 1) // 2
        validate_certificate(cert)
        assert cert.member_bits == a.bits
    for n in (3, 4, 5):
        a, _ = lev_construction(n)
        assert is_maximal_sum_free(a)
        rep = classify_set(a) if n <= 4 else None
        if rep is not None:
            assert rep.aperiodic and rep.primitive
    with pytest.raises(ValueError):
        lev_construction(2)
    with pytest.raises(ValueError):
        lev_construction(13)


def test_proposition_dispatch():
    with pytest.raises(ValueError):
        check_proposition("nope", TernarySet.empty(3))


def test_propositions_on_the_small_witness():
    a, _ = lev_construction(3)
    expected = {
        "prop_hyperplane_cover": "holds",
        "prop_empty_slice": "holds",
        "conclusion_grid": "not_applicable",  # its slice profile misses the hypothesis
        "five_in_cube": "holds",
        "line_everywhere": "holds",
        "no_zero_4A": "holds",
        "codim2_slice": "holds",
    }
    for pid, status in expected.items():
        assert check_proposition(pid, a).status == status, pid


def test_propositions_on_the_dim4_witness():
    a, _ = lev_construction(4)
    assert check_proposition("dim4", a).status == "holds"
    assert check_proposition("parallel_lines", a).status == "holds"
    assert check_proposition("five_in_cube", a).status == "not_applicable"


def test_proposition_hypothesis_filters():
    not_free = TernarySet.from_indices(3, [1, 2])
    small = TernarySet.from_indices(3, [1])
    for pid in ("prop_hyperplane_cover", "prop_empty_slice", "line_everywhere",
                "no_zero_4A", "codim2_slice"):
        assert check_proposition(pid, not_free).status == "not_applicable"
        assert check_proposition(pid, small).status == "not_applicable"
    assert check_proposition("dim4", small).status == "not_applicable"
    assert check_proposition("four_point", small).status == "not_applicable"
    assert check_proposition("five_in_cube", small).status == "not_applicable"

    # a hyperplane handed in explicitly must still satisfy its side conditions
    a, _ = lev_construction(3)
    h_bad = next(h for h in sub.enumerate_hyperplanes(3, avoid_origin=True)
                 if a.bits & h.direction().members_bits)
    r = check_proposition("prop_hyperplane_cover", a, h=h_bad)
    assert r.status == "not_applicable"


def test_conclusion_grid_constructed_instance():
    a = TernarySet.from_indices(2, [1, 3])
    r = check_proposition("conclusion_grid", a)
    assert r.status == "holds"
    assert "primitive_superset" in r.witness


def test_four_point_cases():
    planar_or_sum = TernarySet.from_indices(3, [2, 4, 10, 13])
    r = check_proposition("four_point", planar_or_sum)
    assert r.status == "holds"

    # maximal but non-primitive sets are not subprimitive, so the hypothesis fails
    stuck = TernarySet.from_indices(3, [1, 3, 9, 26])
    assert check_proposition("four_point", stuck).status == "not_applicable"
