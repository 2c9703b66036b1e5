"""Exit codes and output shapes of the command line front end."""

import io
import json

import pytest

from gf3sets import TernarySet, cli, lev_construction, suite
from gf3sets.core import format_set_text
from gf3sets.statements import CheckResult
from gf3sets.search import VerificationVerdict
from gf3sets.subspaces import hyperplane_from_normal


@pytest.fixture
def lev3_file(tmp_path):
    a, _ = lev_construction(3)
    path = tmp_path / "lev3.set"
    path.write_text(format_set_text(a))
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_usage_errors():
    assert cli.main([]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["classify"]) == 2
    assert cli.main(["enumerate-primitive"]) == 2  # --dim is required
    assert cli.main(["suite", "--name", "bogus"]) == 2


def test_input_errors(tmp_path, capsys):
    assert cli.main(["classify", str(tmp_path / "absent.set")]) == 2

    bad = tmp_path / "bad.set"
    bad.write_text("dim 2\n0 5\n")
    assert cli.main(["classify", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    headerless = tmp_path / "h.set"
    headerless.write_text("1 0\n")
    assert cli.main(["classify", str(headerless)]) == 2


def test_check_needs_a_statement(lev3_file):
    assert cli.main(["check", lev3_file]) == 2
    # the two statement families are mutually exclusive
    assert cli.main(
        ["check", "--lemma", "four_sum", "--prop", "dim4", lev3_file]
    ) == 2


def test_classify_file_and_stdin(lev3_file, capsys, monkeypatch):
    assert cli.main(["classify", "--format", "json", lev3_file]) == 0
    obj = _json_out(capsys)
    assert obj["primitive"] and obj["maximal"] and obj["size"] == 5

    a, _ = lev_construction(3)
    monkeypatch.setattr("sys.stdin", io.StringIO(format_set_text(a)))
    assert cli.main(["classify", "-"]) == 0
    out = capsys.readouterr().out
    assert "primitive: True" in out


def test_enumerate_maximal_output(capsys):
    assert cli.main(["enumerate-maximal", "--dim", "2", "--format", "json"]) == 0
    obj = _json_out(capsys)
    assert obj["counts_by_size"] == {"3": 8}
    assert cli.main(["enumerate-maximal", "--dim", "2", "--min-size", "4"]) == 0
    assert cli.main(["enumerate-maximal", "--dim", "4"]) == 2  # needs --up-to-iso


def test_enumerate_primitive_output(capsys):
    assert cli.main(["enumerate-primitive", "--dim", "1", "--format", "json"]) == 0
    obj = _json_out(capsys)
    assert obj["count"] == 2 and sorted(obj["sets"]) == [[1], [2]]
    assert cli.main(["enumerate-primitive", "--dim", "1", "--up-to-iso"]) == 0
    assert "1 primitive orbit" in capsys.readouterr().out


def test_verify_main_text(capsys):
    assert cli.main(["verify-main", "--dim", "2"]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_verify_main_failure_exit(monkeypatch, capsys):
    fake = VerificationVerdict(2, False, 0, 0, [1, 2], {"direction": "forward"})
    monkeypatch.setattr(cli.search, "verify_main_theorem", lambda *a, **k: fake)
    assert cli.main(["verify-main", "--dim", "2"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_compute_t_output(capsys):
    assert cli.main(["compute-t", "--dim", "2", "--format", "json"]) == 0
    assert _json_out(capsys) == {"n": 2, "t": 0}
    assert cli.main(["compute-t", "--dim", "9"]) == 2


def test_compute_t_resumes_from_checkpoint(tmp_path, capsys):
    path = str(tmp_path / "t3.json")
    args = ["compute-t", "--dim", "3", "--format", "json", "--checkpoint", path]
    assert cli.main(args) == 0
    assert _json_out(capsys) == {"n": 3, "t": 5}
    state = json.loads(open(path).read())
    assert state["pending"] == [] and state["min_size"] == 1
    assert cli.main(args) == 0  # replays the finished checkpoint
    assert _json_out(capsys) == {"n": 3, "t": 5}
    # a checkpoint of another search is refused
    other = str(tmp_path / "v3.json")
    assert cli.main(["verify-main", "--dim", "3", "--checkpoint", other]) == 0
    capsys.readouterr()
    assert cli.main(["compute-t", "--dim", "3", "--checkpoint", other]) == 2
    assert "error: checkpoint min_size mismatch" in capsys.readouterr().err


def test_runtime_errors_exit_one(monkeypatch, capsys):
    def boom(*a, **k):
        raise RuntimeError("inconclusive")

    monkeypatch.setattr(cli.search, "compute_t", boom)
    assert cli.main(["compute-t", "--dim", "4"]) == 1
    assert "error: inconclusive" in capsys.readouterr().err


def test_construct_lev_output(capsys):
    assert cli.main(["construct-lev", "--dim", "3", "--format", "json"]) == 0
    obj = _json_out(capsys)
    assert obj["size"] == 5 and obj["certificate"]["kind"] == "derived"
    assert cli.main(["construct-lev", "--dim", "3"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("dim 3\n") and "# size 5" in text
    assert cli.main(["construct-lev", "--dim", "2"]) == 2


def test_check_lemma_paths(lev3_file, capsys):
    assert cli.main(["check", "--lemma", "card_formula", lev3_file]) == 0
    assert "card_formula: holds" in capsys.readouterr().out

    assert cli.main(["check", "--lemma", "dense_affine", "--k", "1",
                     "--format", "json", lev3_file]) == 0
    assert _json_out(capsys)["status"] == "holds"

    a, _ = lev_construction(3)
    normal, label = next(
        (nm, lb)
        for nm in range(1, 27)
        for lb in range(3)
        if hyperplane_from_normal(3, nm, lb).members_bits & a.bits == 0
    )
    assert cli.main(["check", "--lemma", "disjoint_transfer",
                     "--b", lev3_file, "--j", f"{normal},{label}",
                     lev3_file]) == 0
    assert cli.main(["check", "--lemma", "disjoint_transfer",
                     "--j", "not-a-pair", "--b", lev3_file, lev3_file]) == 2


def test_check_prop_paths(lev3_file, capsys):
    assert cli.main(["check", "--prop", "five_in_cube", "--format", "json",
                     lev3_file]) == 0
    assert _json_out(capsys)["status"] == "holds"
    assert cli.main(["check", "--prop", "prop_empty_slice", "--h", "1,2",
                     lev3_file]) == 0


@pytest.mark.parametrize("spec", ["1,5", "1,3", "1,-1"])
@pytest.mark.parametrize("option", [
    ["--prop", "prop_hyperplane_cover", "--h"],
    ["--lemma", "disjoint_transfer", "--j"],
])
def test_hyperplane_label_out_of_range_exits_two(option, spec, lev3_file, capsys):
    assert cli.main(["check", *option, spec, lev3_file]) == 2
    assert "label must be 0, 1 or 2" in capsys.readouterr().err


def test_check_counterexample_exits_one(monkeypatch, lev3_file):
    forced = CheckResult.counterexample("five_in_cube", "forced for the exit test")
    monkeypatch.setattr(cli.statements, "check_proposition", lambda *a, **k: forced)
    assert cli.main(["check", "--prop", "five_in_cube", lev3_file]) == 1


def test_suite_exit_codes(monkeypatch, capsys):
    def ok(rng):
        return CheckResult.holds("tiny_ok", "fine")

    def broken(rng):
        return CheckResult.counterexample("tiny_bad", "forced")

    monkeypatch.setitem(suite._REGISTRY, "tiny_ok", (ok, {}))
    monkeypatch.setitem(suite._REGISTRY, "tiny_bad", (broken, {}))

    monkeypatch.setattr(suite, "_STANDARD", ("tiny_ok",))
    assert cli.main(["suite", "--format", "json"]) == 0
    obj = _json_out(capsys)
    assert obj["passed"] is True and obj["suite"] == "standard"

    monkeypatch.setattr(suite, "_STANDARD", ("tiny_ok", "tiny_bad"))
    assert cli.main(["suite"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "counterexample" in out


def test_suite_prints_check_timings_to_stderr_in_text_mode(monkeypatch, capsys):
    def ok(rng):
        return CheckResult.holds("tiny_ok", "fine")

    monkeypatch.setitem(suite._REGISTRY, "tiny_ok", (ok, {}))
    monkeypatch.setitem(suite._REGISTRY, "tiny_ok_too", (ok, {}))
    monkeypatch.setattr(suite, "_STANDARD", ("tiny_ok", "tiny_ok_too"))
    rep = suite.run_suite("standard")
    capsys.readouterr()

    assert cli.main(["suite"]) == 0
    text = capsys.readouterr()
    assert text.out.splitlines() == [
        f"{c.status:16s} {c.name}: {c.detail}" for c in rep.checks
    ] + ["suite standard: PASS"]
    lines = text.err.splitlines()
    assert [line.split()[-1] for line in lines] == ["tiny_ok", "tiny_ok_too"]
    for line in lines:
        seconds, unit, _ = line.split()
        assert float(seconds) >= 0.0 and unit == "s"

    assert cli.main(["suite", "--format", "json"]) == 0
    text = capsys.readouterr()
    assert json.loads(text.out) == rep.to_json()
    assert text.err == ""


def _corrupt_checkpoint(tmp_path, key, value):
    path = str(tmp_path / "state.json")
    args = ["enumerate-maximal", "--dim", "2", "--up-to-iso", "--checkpoint", path]
    assert cli.main(args) == 0
    state = json.load(open(path))
    state[key] = value
    json.dump(state, open(path, "w"))
    return args


@pytest.mark.parametrize("key,value", [
    ("pending", ["x"]),     # not a set at all
    ("pending", [1 << 9]),  # beyond the 9 points of the space
    ("pending", [3]),       # {0, 1} is not sum-free
    ("pending", [4]),       # {2} is sum-free but not least in its orbit
    ("found", [5]),         # {0, 2} is not sum-free
    ("found", [2]),         # {1} is sum-free but not maximal
    ("found", [True]),
    ("nodes", "4"),
    ("pending", [2, 2]),    # {1} twice: its subtree would be searched twice
    ("pending", [2, 10]),   # {1} beside {1, 3}, which is a layer deeper
])
def test_corrupt_checkpoint_exits_two(tmp_path, capsys, key, value):
    args = _corrupt_checkpoint(tmp_path, key, value)
    capsys.readouterr()
    assert cli.main(args) == 2
    assert f"error: checkpoint {key}" in capsys.readouterr().err


def test_checkpoint_below_min_size_exits_two(tmp_path, capsys):
    path = str(tmp_path / "state.json")
    assert cli.main(["enumerate-maximal", "--dim", "3", "--checkpoint", path]) == 0
    state = json.load(open(path))
    small = min(state["found"], key=int.bit_count)
    assert cli.main(["enumerate-maximal", "--dim", "3", "--checkpoint", path,
                     "--min-size", str(small.bit_count() + 1)]) == 2
    # the same set is refused as a found set of the larger search
    state["min_size"] = small.bit_count() + 1
    json.dump(state, open(path, "w"))
    capsys.readouterr()
    assert cli.main(["enumerate-maximal", "--dim", "3", "--checkpoint", path,
                     "--min-size", str(small.bit_count() + 1)]) == 2
    assert "error: checkpoint found" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_suite_samples_below_one_exit_two(samples, capsys):
    assert cli.main(["suite", "--samples", samples]) == 2
    assert "samples must be at least 1" in capsys.readouterr().err


def test_suite_samples_above_the_bound_exit_two(capsys, monkeypatch):
    # refused before any check runs, so a huge count returns at once
    def crash(args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(suite, "_run_check", crash)
    for samples in (suite.MAX_SAMPLES + 1, 10**11):
        assert cli.main(["suite", "--samples", str(samples)]) == 2
        assert "samples must be at most 100000" in capsys.readouterr().err
    # the bound itself is accepted
    monkeypatch.setattr(
        suite, "_run_check", lambda args: (CheckResult.holds(args[0], str(args[2])), 0.0)
    )
    assert suite.run_suite(samples=suite.MAX_SAMPLES).checks[0].detail == "100000"


def test_truncated_checkpoint_exits_two(tmp_path):
    path = tmp_path / "state.json"
    args = ["enumerate-maximal", "--dim", "2", "--checkpoint", str(path)]
    assert cli.main(args) == 0
    path.write_text(path.read_text()[:-5])
    assert cli.main(args) == 2
    path.write_text("[]")
    assert cli.main(args) == 2


@pytest.mark.parametrize("args", [
    ["suite", "--jobs", "0"],
    ["enumerate-maximal", "--dim", "2", "--jobs", "-4"],
    ["verify-main", "--dim", "2", "--jobs", "0"],
    ["compute-t", "--dim", "2", "--jobs", "0"],
])
def test_jobs_below_one_exit_two(args, capsys):
    assert cli.main(args) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


def test_classify_refuses_dimension_ten(tmp_path, capsys):
    path = tmp_path / "dim10.set"
    path.write_text(format_set_text(TernarySet.from_indices(10, [1, 5])))
    assert cli.main(["classify", str(path)]) == 2
    assert "capped at dimension 9" in capsys.readouterr().err


def test_classify_lev8_minus_a_point(tmp_path, capsys):
    a, _ = lev_construction(8)
    path = tmp_path / "lev8.set"
    path.write_text(format_set_text(TernarySet(8, a.bits & (a.bits - 1))))
    assert cli.main(["classify", str(path), "--format", "json"]) == 0
    rep = _json_out(capsys)
    assert rep["sum_free"] and not rep["maximal"]
    assert rep["primitive"] is False and rep["certificate"] is None


def test_classify_the_empty_set_in_dimension_zero(tmp_path, capsys):
    # F_3^0 has no origin-avoiding hyperplane, so no primitive superset
    path = tmp_path / "dim0.set"
    path.write_text("dim 0\n")
    assert cli.main(["classify", str(path), "--format", "json"]) == 0
    rep = _json_out(capsys)
    assert rep["dim"] == 0 and rep["size"] == 0
    assert rep["primitive"] is False and rep["subprimitive"] is False
