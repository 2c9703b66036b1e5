"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]

For each workload, runs the traced benchmark twice and the untraced one once
at the same seed, then requires that

* every run passes its output checks (each traced run also requires its
  traced unit to reproduce its untraced unit's canonical outputs);
* the canonical output digest is the same in all three runs, so outputs
  are identical with tracing on and off;
* every count metric (search.nodes, canon.lexmin_calls, canon.lexmin_accepted,
  primitive.recognize_calls, primitive.recognize_hits, every space and core
  *_calls, ...) is equal in the two traced runs.

Exits 0 when all hold and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def check(workload: str, seed: int) -> list:
    problems = []
    env_a, res_a = bench(workload, seed, 1)
    env_b, res_b = bench(workload, seed, 1)
    env_u, res_u = bench(workload, seed, 0)
    for label, res in (("traced", res_a), ("traced again", res_b), ("untraced", res_u)):
        if not res["correct"]:
            problems.append(f"{label} run failed {res['failed']} of {res['attempted']}")
    digests = {env_a["output_digest"], env_b["output_digest"], env_u["output_digest"]}
    if len(digests) != 1:
        problems.append(f"canonical outputs differ across runs: {sorted(digests)}")
    counts = [name for name, m in res_a["metrics"].items() if m["unit"] == "count"]
    for name in counts:
        a, b = res_a["metrics"][name]["value"], res_b["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name}: {a} then {b}")
    print(f"{workload}: {len(counts)} counters compared, digest {env_a['output_digest']}, "
          f"{'ok' if not problems else 'FAILED'}", flush=True)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    failed = False
    for workload in args.workload or list(workloads.WORKLOADS):
        for problem in check(workload, args.seed):
            print(f"  {problem}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
