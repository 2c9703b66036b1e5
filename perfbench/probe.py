"""A speed probe that runs beside the timed unit on the same CPU.

On a shared 2-vCPU VM (2.1 GHz Xeon) the same interpreter loop takes from
0.12 s to 0.25 s from one second to the next, the CPUs drift independently,
and the mean drifts by 15% over minutes: the elapsed time of ten runs of
one workload spread by 9-14% between quartiles.  The probe is a sidecar
process, pinned to the benchmark's CPU, that every 50 ms times a fixed chunk
of bitset translations in its own CPU time.  The chunk indexes a table as
large as the addition table of the space the workload works in, so cache
pressure slows it as it slows the workload; with a small table the
classify_stream spread stayed at 8.5%.  A time measured during the unit,
scaled by REF_CHUNK_S over the probe's mean chunk time, is the time the unit
would have taken at the reference speed.  The probe takes about 5% of the
CPU from the unit.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

# about the mean chunk time on the VM above, so scaled times stay near raw ones
REF_CHUNK_S = 0.003

PROBE_CODE = """\
import random, select, sys, time
size = 3 ** int(sys.argv[1])
rng = random.Random(0)
# the chunk translates bitsets through a table as large as the addition
# table of the workload's space: the library's commonest kernel and its
# working set
table = [rng.sample(range(size), size) for _ in range(size)]
sets = [sum(1 << i for i in rng.sample(range(size), 2 * size // 5)) for _ in range(8)]
print("ready", flush=True)
out = []
while True:
    c0 = time.process_time()
    steps = 0
    while steps < 4500:
        row, b, moved = table[rng.randrange(size)], sets[steps % 8], 0
        while b:
            low = b & -b
            moved |= 1 << row[low.bit_length() - 1]
            b ^= low
            steps += 1
    out.append(time.process_time() - c0)
    if select.select([sys.stdin], [], [], 0.05)[0]:
        break
print(" ".join(repr(x) for x in out))
"""


def pin_to_one_cpu() -> int:
    """Keep this process (and the probes it starts) on one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Context manager around a timed unit; read factor after exit.

    dim is the dimension of the space the unit mostly works in.
    """

    def __init__(self, dim: int):
        self.dim = dim

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", PROBE_CODE, str(self.dim)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.proc.stdout.readline()  # sampling has started
        self.samples: list = []
        return self

    def __exit__(self, *exc):
        out, _ = self.proc.communicate("stop\n", timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError(f"speed probe exited {self.proc.returncode}")
        self.samples = [float(x) for x in out.split()]
        return False

    @property
    def factor(self) -> float:
        """Reference speed over measured speed; times are multiplied by it."""
        if not self.samples:
            raise RuntimeError("the speed probe took no samples")
        return REF_CHUNK_S / statistics.fmean(self.samples)
