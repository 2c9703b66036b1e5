"""The statement registry: frozen outputs, the lemma memo, CLI reachability, flat-table bound."""

import functools
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf3sets import (
    TernarySet,
    check_lemma,
    check_proposition,
    cli,
    enumerate_primitive,
    lev_construction,
)
from gf3sets import statements, suite
from gf3sets import subspaces as sub
from gf3sets.core import format_set_text, is_sum_free, k_fold_sumset
from gf3sets.space import space
from gf3sets.statements import STATEMENTS
from gf3sets.subspaces import hyperplane_from_normal

# sha256 prefixes of json.dumps([r.to_json() for r in results], sort_keys=True)
# over _cases(); any change to a status, detail or witness changes them
FROZEN = {
    "affine_above_sym": "5ad2a01ff375b70e",
    "card_formula": "3424fa76d1d7788a",
    "codim2_slice": "15cce48f7555f575",
    "conclusion_grid": "1829f09b665a54a6",
    "dense_affine": "5c2c432594e9c1ae",
    "dim4": "be8a240ab57f9dbd",
    "disjoint_transfer": "b57e0928c01e7bbd",
    "five_in_cube": "e9ef2dfed342a865",
    "four_point": "c37033e9a9614ce6",
    "four_sum": "e3fb9c1b90b73787",
    "hyperplane_bound": "0ebc3ae95397944c",
    "line_everywhere": "eaece2cef535e22e",
    "no_zero_4A": "a4327edd5b68e93f",
    "parallel_lines": "93953061fd1c3925",
    "prop_empty_slice": "175cd6fc45b008ea",
    "prop_hyperplane_cover": "4174dd1e570497d0",
    "sym_containment": "dfe3c83bb9fd9fcc",
}


@functools.lru_cache(maxsize=None)
def _cases():
    """(set, lemma keywords, proposition keywords) for every pool entry.

    The pool: lev(3), lev(4), every primitive orbit representative up to
    dimension 4, a non-sum-free pair and a singleton at dimension 3, and
    the --k, --b/--j and --h inputs the CLI tests pass with lev(3).
    """
    lev3 = lev_construction(3)[0]
    sets = [lev3, lev_construction(4)[0]]
    for n in range(1, 5):
        sets += enumerate_primitive(n, up_to_iso=True)
    sets += [TernarySet.from_indices(3, (1, 2)), TernarySet.from_indices(3, (1,))]
    avoiding = next(
        j
        for nm in range(1, 27)
        for lb in range(3)
        if (j := hyperplane_from_normal(3, nm, lb)).members_bits & lev3.bits == 0
    )
    return (
        [(a, {}, {}) for a in sets]
        + [(lev3, {"k": 1}, None), (lev3, {"b": lev3, "j": avoiding}, None)]
        + [(lev3, None, {"h": hyperplane_from_normal(3, 1, 2)})]
    )


@pytest.mark.parametrize("sid", list(STATEMENTS))
def test_statement_outputs_are_frozen(sid):
    if STATEMENTS[sid][0] == "lemma":
        results = [check_lemma(sid, a, **kw) for a, kw, _ in _cases() if kw is not None]
    else:
        results = [check_proposition(sid, a, **kw) for a, _, kw in _cases() if kw is not None]
    text = json.dumps([r.to_json() for r in results], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == FROZEN[sid]


@pytest.mark.parametrize("pid", ["parallel_lines", "dim4"])
def test_dim4_propositions_refuse_sets_outside_their_hypotheses(pid):
    lev4 = lev_construction(4)[0]
    short = TernarySet.from_indices(4, lev4.indices()[:-1])
    assert short.size == 13 and is_sum_free(short)
    cases = [
        (lev_construction(3)[0], "the statement concerns dimension 4"),
        (TernarySet.from_indices(4, [1, 2]), "set is not sum-free"),  # -e_0 = e_0 + e_0
        (short, "set has fewer than 14 members"),
    ]
    if pid == "parallel_lines":
        # 14 points of the hyperplane x_0 = 1, so sum-free, with at most one
        # line in each direction
        spread = TernarySet.from_indices(
            4, [1, 4, 10, 13, 16, 25, 37, 49, 52, 61, 67, 70, 76, 79])
        assert is_sum_free(spread)
        cases.append((spread, "no two parallel lines inside the set"))
    for a, detail in cases:
        got = check_proposition(pid, a)
        assert (got.status, got.detail) == ("not_applicable", detail), a.indices()


def _zero_in_4A_verdicts(a):
    got = statements._zero_free_4A("four_sum", a).status == "counterexample"
    return got, 0 in k_fold_sumset(a, 4)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, 2**3**n - 1))))
def test_zero_in_4A_read_off_2A_matches_the_fourfold_sumset(case):
    got, want = _zero_in_4A_verdicts(TernarySet(*case))
    assert got == want


@pytest.mark.parametrize("n", [3, 4, 5])
def test_zero_in_4A_read_off_2A_around_lev(n):
    """lev(n) has no zero-sum of four; the negative of a member x gives
    one, x + x + (-x) + (-x)."""
    lev = lev_construction(n)[0]
    assert _zero_in_4A_verdicts(lev) == (False, False)
    x = lev.indices()[0]
    with_neg = TernarySet(n, lev.bits | 1 << space(n).neg[x])
    assert _zero_in_4A_verdicts(with_neg) == (True, True)


def test_lemma_sweeps_recognize_each_primitive_set_once():
    memo = statements._primitive_facts
    assert len(suite._primitive_pool()) < memo.cache_info().maxsize
    suite._chk_lemma_sweep(random.Random(0), "card_formula")
    misses = memo.cache_info().misses
    for lemma_id in ("sym_containment", "four_sum", "hyperplane_bound"):
        suite._chk_lemma_sweep(random.Random(0), lemma_id)
    assert memo.cache_info().misses == misses


def test_every_statement_has_exactly_one_cli_flag(capsys):
    parser = cli._build_parser()
    flag_of = {"lemma": "--lemma", "proposition": "--prop"}
    for sid, (kind, _) in STATEMENTS.items():
        accepted = []
        for flag in ("--lemma", "--prop"):
            try:
                parser.parse_args(["check", flag, sid, "a.set"])
            except SystemExit:
                continue
            accepted.append(flag)
        assert accepted == [flag_of[kind]], sid
    capsys.readouterr()


def test_unknown_ids_are_refused_per_kind():
    a = lev_construction(3)[0]
    with pytest.raises(ValueError, match="card_formula"):
        check_lemma("line_everywhere", a)
    with pytest.raises(ValueError, match="line_everywhere"):
        check_proposition("card_formula", a)


def test_flat_tables_above_the_bound_are_refused_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("a refused table must not be enumerated")

    monkeypatch.setattr(sub, "enumerate_rref_bases", refuse)
    lev7 = lev_construction(7)[0]
    with pytest.raises(ValueError, match="table bound"):
        check_proposition("line_everywhere", lev7)
    with pytest.raises(ValueError, match="table bound"):
        check_lemma("affine_above_sym", lev7)


def test_cli_check_above_the_flat_bound_exits_two(tmp_path, capsys):
    path = tmp_path / "lev7.set"
    path.write_text(format_set_text(lev_construction(7)[0]))
    assert cli.main(["check", "--prop", "line_everywhere", str(path)]) == 2
    assert "table bound" in capsys.readouterr().err


def test_guards_report_their_failed_hypothesis():
    """Hypotheses that no frozen case fails, each refused with its own
    detail.  An origin-containing h is skipped: were it taken, lev(3),
    which misses the hyperplane x_0 = 0, would conclude subprimitive."""
    lev3, lev5 = lev_construction(3)[0], lev_construction(5)[0]
    avoiding = next(j for j in sub.enumerate_hyperplanes(3) if not j.members_bits & lev3.bits)
    plane = TernarySet(3, hyperplane_from_normal(3, 1, 1).members_bits)
    stray = TernarySet.from_indices(3, lev3.indices()[1:] + [1])
    linear = hyperplane_from_normal(3, 1, 0)
    cases = [
        # {0, e_0, e_1} spans F_3^2 and holds 0 + 0 = 0
        (check_lemma, "dense_affine", TernarySet.from_indices(2, [0, 1, 3]), {"k": 1},
         "set is not subprimitive"),
        (check_lemma, "disjoint_transfer", plane, {"b": plane, "j": avoiding},
         "set is not a derived primitive"),
        (check_lemma, "disjoint_transfer", lev3,
         {"b": lev3, "j": sub.affine_subspace(3, (3,), 1)}, "J is not a hyperplane"),
        (check_lemma, "disjoint_transfer", lev3, {"b": stray, "j": avoiding},
         "B is not a subset of A"),
        (check_proposition, "prop_hyperplane_cover", lev5, {},
         "needs the verified range n <= 4"),
        (check_proposition, "prop_empty_slice", lev5, {}, "needs the verified range n <= 4"),
        (check_proposition, "prop_hyperplane_cover", lev3, {"h": linear},
         "no hyperplane satisfies the hypotheses"),
        (check_proposition, "prop_empty_slice", lev3, {"h": linear},
         "no hyperplane satisfies the hypotheses"),
    ]
    for check, sid, a, kw, detail in cases:
        got = check(sid, a, **kw)
        assert (got.status, got.detail) == ("not_applicable", detail), (sid, detail)
