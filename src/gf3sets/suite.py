"""Named batteries of checks over the whole library.

Every check is a module-level function fed its own random stream derived
from the suite seed and the check name, so reports are reproducible for a
given seed no matter how the checks are scheduled or how many worker
processes run them.  Canonical JSON carries no timing; the wall time of
each check is kept beside it in SuiteReport.timings.
"""

from __future__ import annotations

import inspect
import os
import random
import time
from dataclasses import dataclass, field

from . import canon, halves, kneser, primitive, search, statements, subspaces
from .core import (
    TernarySet,
    is_aperiodic,
    is_maximal_sum_free,
    is_sum_free_bits,
)
from .statements import CheckResult
from .space import randbelow, sample_bits

SUITE_NAMES = ("standard", "extended")
MAX_SAMPLES = 10**5  # ten times the largest default count, kneser_random's


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    checks: tuple
    # (check name, wall seconds) per check, in check order; not in to_json()
    timings: tuple = field(default=(), compare=False)

    @property
    def passed(self) -> bool:
        return all(c.status == "holds" for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _counterexamples(name: str, results: list, detail: str) -> CheckResult:
    bad = [r for r in results if r.status == "counterexample"]
    if bad:
        return CheckResult.counterexample(
            name, f"{len(bad)} of {len(results)} failed; first: {bad[0].detail}",
            witness=bad[0].witness,
        )
    held = sum(r.status == "holds" for r in results)
    return CheckResult.holds(name, f"{detail}: {held} held, {len(results) - held} inapplicable")


def _chk_verify_main(rng: random.Random, n: int) -> CheckResult:
    name = f"verify_main_{n}"
    verdict = search.verify_main_theorem(n)
    if not verdict.verified:
        return CheckResult.counterexample(
            name, f"failed in direction {verdict.details.get('direction')}",
            witness={"set": verdict.counterexample, "details": verdict.details},
        )
    return CheckResult.holds(
        name,
        f"{verdict.forward_checked} orbit(s) forward, "
        f"{verdict.backward_checked} sets backward",
    )


def _chk_t_value(rng: random.Random, n: int, expected: int) -> CheckResult:
    name = f"t_value_{n}"
    got = search.compute_t(n)
    if got != expected:
        return CheckResult.counterexample(name, f"t = {got}, expected {expected}")
    return CheckResult.holds(name, f"t = {got}")


def _chk_lev(rng: random.Random, n: int) -> CheckResult:
    name = f"lev_{n}"
    a, cert = search.lev_construction(n)
    want = (3 ** (n - 1) + 1) // 2
    if a.size != want:
        return CheckResult.counterexample(name, f"size {a.size}, expected {want}")
    if not is_maximal_sum_free(a):
        return CheckResult.counterexample(name, "not maximal sum-free")
    if not is_aperiodic(a):
        return CheckResult.counterexample(name, "not aperiodic")
    if n <= 5:
        try:
            primitive.validate_certificate(cert)
        except primitive.CertificateError as exc:
            return CheckResult.counterexample(name, f"certificate rejected: {exc}")
        if cert.member_bits != a.bits:
            return CheckResult.counterexample(name, "certificate covers a different set")
    return CheckResult.holds(name, f"size {a.size}, maximal, aperiodic")


def _chk_kneser_random(rng: random.Random, samples: int = 10000) -> CheckResult:
    name = "kneser_random"
    equal = 0
    for i in range(samples):
        n = 1 + i % 3
        a, b = kneser._pair_bits(rng, n)
        s, a_plus_k, b_plus_k, k, holds = kneser._bound_bits(a, b, n)
        if not holds:
            a, b = TernarySet(n, a), TernarySet(n, b)
            return CheckResult.counterexample(
                name, f"sample {i}: {kneser.kneser_check(a, b).detail}",
                witness={"A": a.indices(), "B": b.indices()},
            )
        equal += s == a_plus_k + b_plus_k - k
    return CheckResult.holds(name, f"{samples} pairs, {equal} met with equality")


def _chk_kneser_witness(rng: random.Random, samples: int = 1000) -> CheckResult:
    name = "kneser_witness"
    degenerate = 0
    for i in range(samples):
        n = 2 + i % 3
        a, b, c = kneser.sample_witness_triple(rng, n)
        try:
            kneser.find_stabilizer_witness(a, b, c)
        except (kneser.HypothesisError, RuntimeError) as exc:
            return CheckResult.counterexample(
                name, f"sample {i}: {exc}",
                witness={"A": a.indices(), "B": b.indices(), "C": c.indices()},
            )
        if a.size == 0 or b.size == 0:
            degenerate += 1
    return CheckResult.holds(name, f"{samples} triples, {degenerate} with an empty side")


def _chk_kneser_corollaries(rng: random.Random, samples: int = 1000) -> CheckResult:
    name = "kneser_corollaries"
    results = []
    for i in range(samples):
        n = 1 + i % 3
        size = 3**n
        sa = 1 + randbelow(rng, size)
        sb = size - sa + 1 + randbelow(rng, sa)
        a = TernarySet(n, sample_bits(rng, range(size), sa))
        b = TernarySet(n, sample_bits(rng, range(size), sb))
        results.append(kneser.full_sumset_check(a, b))
        sc = size // 3 + 1 + randbelow(rng, size - size // 3)
        c = TernarySet(n, sample_bits(rng, range(size), sc))
        results.append(kneser.difference_cover_check(c))
    return _counterexamples(name, results, f"{2 * samples} corollary instances")


def _chk_half_fact(rng: random.Random) -> CheckResult:
    name = "half_fact"
    h3 = subspaces.affine_subspace(3, (3, 9), 1)
    u3 = subspaces.affine_subspace(3, (), 1)
    halves3 = halves.enumerate_halves(h3, u3)
    if len(halves3) != 16:
        return CheckResult.counterexample(name, f"{len(halves3)} halves, expected 16")
    if not halves.check_half_fact(h3, u3):
        return CheckResult.counterexample(name, "a point half misses a line")
    h4 = subspaces.affine_subspace(4, (3, 9, 27), 1)
    u4 = subspaces.affine_subspace(4, (3,), 1)
    if not halves.check_half_fact(h4, u4):
        return CheckResult.counterexample(name, "a line half misses a plane")
    return CheckResult.holds(name, "all halves contain a flat one dimension above the core")


def _primitive_pool(max_dim: int = 3) -> list:
    pool = []
    for n in range(1, max_dim + 1):
        pool.extend(primitive.enumerate_primitive(n))
    return pool


def _chk_lemma_sweep(rng: random.Random, lemma_id: str) -> CheckResult:
    name = f"lemma_{lemma_id}"
    results = [statements.check_lemma(lemma_id, a) for a in _primitive_pool()]
    return _counterexamples(name, results, f"{len(results)} primitive sets")


def _chk_lemma_dense_affine(rng: random.Random, samples: int = 500) -> CheckResult:
    name = "lemma_dense_affine"
    reps = primitive.enumerate_primitive(3, up_to_iso=True)
    results = []
    for i in range(samples):
        a = rng.choice(reps)
        g = canon.random_gl(3, rng)
        moved = TernarySet(3, g.apply_bits(a.bits))
        for k in (1, 2, 3):
            results.append(statements.check_lemma("dense_affine", moved, k=k))
    return _counterexamples(name, results, f"{len(results)} (set, k) instances")


def _chk_lemma_disjoint_transfer(rng: random.Random, samples: int = 200) -> CheckResult:
    name = "lemma_disjoint_transfer"
    base = next(
        a for a in primitive.enumerate_primitive(3, up_to_iso=True) if a.size == 5
    )
    planes = subspaces.enumerate_hyperplanes(3)
    results = []
    for _ in range(samples):
        g = canon.random_gl(3, rng)
        a = TernarySet(3, g.apply_bits(base.bits))
        for j in planes:  # keep only instances whose hypotheses can fire
            if a.bits & j.members_bits == 0:
                results.append(statements.check_lemma("disjoint_transfer", a, b=a, j=j))
        results.append(
            statements.check_lemma(
                "disjoint_transfer", a, b=a, j=planes[randbelow(rng, len(planes))]
            )
        )
    return _counterexamples(name, results, f"{len(results)} transfers")


def _chk_five_in_cube_sample(rng: random.Random, samples: int = 500) -> CheckResult:
    name = "five_in_cube_sample"
    results = []
    tries = 0
    while len(results) < samples and tries < samples * 400:
        tries += 1
        bits = sample_bits(rng, range(1, 27), 5)
        if not is_sum_free_bits(bits, 3):
            continue
        # a sum-free 5-subset of the cube meets every hypothesis, so the
        # conclusion is checked without testing sum-freeness again
        a = TernarySet(3, bits)
        res = statements._five_in_cube_conclusion("five_in_cube", a)
        if res.status == "counterexample":
            return CheckResult.counterexample(
                name, res.detail, witness={"set": a.indices()}
            )
        results.append(res)
    return CheckResult.holds(name, f"{len(results)} sum-free 5-subsets all conform")


def _chk_prop_spot_checks(rng: random.Random) -> CheckResult:
    name = "prop_spot_checks"
    base = next(
        a for a in primitive.enumerate_primitive(3, up_to_iso=True) if a.size == 5
    )
    results = []
    for _ in range(100):
        g = canon.random_gl(3, rng)
        a = TernarySet(3, g.apply_bits(base.bits))
        for prop in ("prop_hyperplane_cover", "prop_empty_slice", "line_everywhere",
                     "no_zero_4A", "codim2_slice"):
            results.append(statements.check_proposition(prop, a))
        four = TernarySet.from_indices(3, a.indices()[:4])
        results.append(statements.check_proposition("four_point", four))
    applicable = sum(r.status == "holds" for r in results)
    bad = [r for r in results if r.status == "counterexample"]
    if bad:
        return CheckResult.counterexample(name, bad[0].detail, witness=bad[0].witness)
    if applicable == 0:
        return CheckResult.counterexample(name, "no proposition instance was applicable")
    return CheckResult.holds(name, f"{applicable} applicable instances held")


def _chk_dim4_sweep(rng: random.Random, samples: int = 40) -> CheckResult:
    name = "dim4_sweep"
    reps = primitive.enumerate_primitive(4, up_to_iso=True)
    results = []
    pool = [TernarySet(4, r.bits) for r in reps]
    for _ in range(samples):
        g = canon.random_gl(4, rng)
        pool.append(TernarySet(4, g.apply_bits(rng.choice(reps).bits)))
    for a in pool:
        for prop in ("dim4", "parallel_lines", "no_zero_4A", "line_everywhere",
                     "codim2_slice"):
            results.append(statements.check_proposition(prop, a))
        for lemma in ("card_formula", "sym_containment", "four_sum",
                      "hyperplane_bound", "affine_above_sym"):
            results.append(statements.check_lemma(lemma, a))
    planes = subspaces.enumerate_hyperplanes(4)
    for big in (a for a in pool if a.size == 15):
        for drop in big.indices():  # proper subsets still above the mass bound
            b = TernarySet(4, big.bits & ~(1 << drop))
            for j in planes:
                if b.bits & j.members_bits == 0:
                    results.append(
                        statements.check_lemma("disjoint_transfer", big, b=b, j=j)
                    )
    return _counterexamples(name, results, f"{len(results)} dimension-4 instances")


_REGISTRY = {
    "verify_main_1": (_chk_verify_main, {"n": 1}),
    "verify_main_2": (_chk_verify_main, {"n": 2}),
    "verify_main_3": (_chk_verify_main, {"n": 3}),
    "t_value_1": (_chk_t_value, {"n": 1, "expected": 1}),
    "t_value_2": (_chk_t_value, {"n": 2, "expected": 0}),
    "t_value_3": (_chk_t_value, {"n": 3, "expected": 5}),
    **{f"lev_{n}": (_chk_lev, {"n": n}) for n in range(3, 9)},
    "kneser_random": (_chk_kneser_random, {}),
    "kneser_witness": (_chk_kneser_witness, {}),
    "kneser_corollaries": (_chk_kneser_corollaries, {}),
    "half_fact": (_chk_half_fact, {}),
    # every lemma is swept over the primitive sets, except the two that
    # take a parameter; the overrides keep the lemmas' registry positions
    **{
        f"lemma_{lid}": (_chk_lemma_sweep, {"lemma_id": lid})
        for lid in statements.statement_ids("lemma")
    },
    "lemma_dense_affine": (_chk_lemma_dense_affine, {}),
    "lemma_disjoint_transfer": (_chk_lemma_disjoint_transfer, {}),
    "five_in_cube_sample": (_chk_five_in_cube_sample, {}),
    "prop_spot_checks": (_chk_prop_spot_checks, {}),
    "verify_main_4": (_chk_verify_main, {"n": 4}),
    "dim4_sweep": (_chk_dim4_sweep, {}),
}

_STANDARD = tuple(
    n for n in _REGISTRY if n not in ("verify_main_4", "dim4_sweep")
)
_EXTENDED = tuple(_REGISTRY)


def _run_check(args: tuple) -> tuple:
    """(result, wall seconds) of one check."""
    name, seed, samples = args
    fn, kwargs = _REGISTRY[name]
    if samples is not None and "samples" in inspect.signature(fn).parameters:
        kwargs = {**kwargs, "samples": samples}
    rng = random.Random(f"{seed}/{name}")
    t0 = time.perf_counter()
    try:
        result = fn(rng, **kwargs)
    except Exception as exc:  # a crashed check must fail the suite, not hide
        result = CheckResult.counterexample(
            name, f"check raised {type(exc).__name__}: {exc}"
        )
    return result, time.perf_counter() - t0


def run_suite(
    name: str = "standard",
    jobs: int = 1,
    seed: int = 0,
    samples: int | None = None,
) -> SuiteReport:
    """Run one suite; the report is identical for any worker count.

    samples, when given, overrides the default sample count of every
    randomized check (the exhaustive ones are unaffected); it must be
    between 1 and MAX_SAMPLES.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples is not None and samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    names = _STANDARD if name == "standard" else _EXTENDED
    args = [(c, seed, samples) for c in names]
    workers = min(jobs, len(args), os.cpu_count() or 1)
    runs = list(search._pool_map(_run_check, args, workers))
    return SuiteReport(
        suite=name,
        seed=seed,
        checks=tuple(r for r, _ in runs),
        timings=tuple((c, s) for c, (_, s) in zip(names, runs)),
    )
