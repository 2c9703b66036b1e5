"""Benchmark entry point for gf3sets.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
src/ directory.  Workloads are listed in BENCHMARK.json and defined in
workloads.py.

--trace 0 measures the end-to-end metrics: the workload's unit of work is
repeated while another unit still fits in --seconds (at least once), and
times are medians over units, scaled to a reference speed by a probe that
runs beside each unit (probe.py); the raw times, and the median and p90 of
the per-call latencies, are kept in the environment line.  --trace 1 runs one unit untraced, then one
with tracing installed (tracing.py), and reports the per-layer metrics.

Every output is checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it records the environment.  Canonical outputs are digested per workload and
seed into .bench_out/ in the checkout, and a later run whose digest differs
fails; a traced run also writes its spans there.  The exit code is 0 when
every check passed, 1 when one failed, and 2 when the benchmark could not
run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import gf3sets
from gf3sets.space import space
for n in {dims!r}:
    space(n)
print(time.perf_counter() - t0)
"""


def _fail_to_run(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(dims: tuple) -> list:
    """Import plus first space(n) builds, each in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE.format(dims=dims)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            _fail_to_run(f"set-up failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def import_library():
    if not (SRC / "gf3sets" / "__init__.py").is_file():
        _fail_to_run(f"no gf3sets sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gf3sets

    if Path(gf3sets.__file__).resolve().parent != SRC / "gf3sets":
        _fail_to_run(f"gf3sets imported from {gf3sets.__file__}, not from {SRC}")
    import gf3sets.cli  # noqa: F401  (so tracing also covers its bindings)

    return gf3sets


def environment(args, info: dict) -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    rev = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        rev = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "gf3sets").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
        "src_sha256": src_hash.hexdigest()[:16],
        **info,
    }


def high_percentile(values: list) -> float:
    """p90, or the maximum when fewer than ten samples lie beyond p90."""
    ordered = sorted(values)
    if len(ordered) * 0.1 < 10:
        return ordered[-1]
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def check_digest(workload: str, seed: int, digest: str) -> bool:
    """Canonical outputs must match every earlier run of this seed here."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-{seed}.digest"
    if path.is_file():
        return path.read_text().strip() == digest
    path.write_text(digest + "\n")
    return True


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args, work, setup: float) -> tuple:
    """Units while another fits in --seconds; times at the probe's reference speed."""
    units, factors = [], []
    start = time.perf_counter()
    while True:
        with probe.SpeedProbe(work.probe_dim) as speed:
            units.append(work.run())
        factors.append(speed.factor)
        if time.perf_counter() - start + units[-1].wall_s > args.seconds:
            break
    walls = [u.wall_s * f for u, f in zip(units, factors)]
    latencies = [t * f for u, f in zip(units, factors) for t in u.latencies]
    metrics = {
        "setup_s": metric(setup, "s"),
        "wall_ref_s": metric(statistics.median(walls), "s"),
        "cpu_ref_s": metric(
            statistics.median(u.cpu_s * f for u, f in zip(units, factors)), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_per_ref_s": metric(len(latencies) / sum(walls), "1/s"),
    }
    detail = {"units": len(units), "ops": len(latencies),
              "op_p50_ref_ms": 1000 * statistics.median(latencies),
              "op_p90_ref_ms": 1000 * high_percentile(latencies),
              "raw_wall_s": [u.wall_s for u in units],
              "raw_cpu_s": [u.cpu_s for u in units],
              "speed_factor": factors}
    return units, metrics, detail


def run_traced(args, work) -> tuple:
    plain = work.run()
    tracer = tracing.Tracer()
    tracer.install()
    traced = work.run()
    summary = tracer.summary(traced.wall_s)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}.tsv")
    metrics = tracing.layer_metrics(summary)
    metrics["trace.overhead_s"] = metric(traced.wall_s - plain.wall_s, "s")
    # the traced unit must reproduce the untraced outputs exactly
    if traced.digest != plain.digest:
        traced.ok[:] = [False] * len(traced.ok)
    detail = {"bindings_wrapped": tracer.wrapped,
              "spans": len(tracer.span_dur),
              "kernels_by_caller": summary["kernels_by_caller"]}
    return [plain, traced], metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        _fail_to_run(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        _fail_to_run("--seconds must be positive")
    gf = import_library()
    cpu = probe.pin_to_one_cpu()
    cls = workloads.WORKLOADS[args.workload]
    setup, samples = None, []
    if not args.trace:
        with probe.SpeedProbe(cls.probe_dim) as speed:
            samples = measure_setup(cls.dims)
        setup = statistics.median(samples) * speed.factor
    for n in cls.dims:
        gf.space.space(n)
    try:
        work = cls(gf, args.seed)
    except workloads.InputError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    if args.trace:
        units, metrics, detail = run_traced(args, work)
    else:
        units, metrics, detail = run_untraced(args, work, setup)
    attempted = sum(len(u.ok) for u in units)
    failed = sum(not ok for u in units for ok in u.ok)
    for u in units:
        if not check_digest(args.workload, args.seed, u.digest):
            failed += sum(u.ok)
            u.ok[:] = [False] * len(u.ok)

    env = environment(args, {**work.info, "pinned_cpu": cpu,
                             "output_digest": units[0].digest,
                                 "setup_raw_s": samples, **detail})
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:36s} {m['value']:14.6g} {m['unit']}",
              file=sys.stderr)
    print(f"{args.workload:16s} {'fail_ratio':36s} {failed / attempted:14.6g} "
          f"({failed} of {attempted})", file=sys.stderr)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
