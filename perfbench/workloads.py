"""The benchmark's workloads: seeded inputs, one timed unit of work, checks.

Each workload is a closed loop with one caller.  Its inputs are built in the
constructor, before any timing; run() performs one unit of work through the
public gf3sets API and returns the latency of every checked call, whether
each one passed its check, and a digest of the canonical outputs.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import stream


def canonical_digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Unit:
    latencies: list  # seconds per checked call
    ok: list  # one bool per checked call
    digest: str  # of the canonical outputs
    wall_s: float
    cpu_s: float


def _timed(fn):
    w0, c0 = time.perf_counter(), time.process_time()
    out = fn()
    return out, time.perf_counter() - w0, time.process_time() - c0


class Dim4Search:
    """The paper's headline computation: the reduced dimension-4 search.

    Deterministic, so the seed is accepted and unused.
    """

    dims = (4,)
    probe_dim = 4
    CENSUS = {14: 17_694_720, 15: 74_880, 27: 80}
    ORBITS = {14: 4, 15: 1, 27: 1}
    NODES = 1488

    def __init__(self, gf, seed: int):
        self.gf = gf
        self.info = {}

    def run(self) -> Unit:
        gf = self.gf
        rep, wall, cpu = _timed(
            lambda: gf.enumerate_maximal_sumfree(4, min_size=14, up_to_iso=True)
        )
        ok = (rep.counts_by_size == self.CENSUS
              and rep.orbit_counts_by_size == self.ORBITS
              and rep.node_count == self.NODES)
        return Unit([wall], [ok], canonical_digest(rep.to_json()), wall, cpu)


class ClassifyStream:
    """classify_set, and validate_certificate on any certificate, per set."""

    dims = stream.DIMS
    probe_dim = 6

    def __init__(self, gf, seed: int):
        self.gf = gf
        lev = {n: gf.lev_construction(n)[0].bits for n in stream.DIMS}
        got = {n: stream.digest([(n, "lev", lev[n])]) for n in stream.DIMS}
        if got != stream.LEV_DIGESTS:
            raise InputError(f"lev_construction changed: digests {got}")
        self.items = stream.make_stream(seed, lev)
        self.sets = [gf.TernarySet(n, bits) for n, _, bits in self.items]
        self.info = {"stream_digest": stream.digest(self.items),
                     "stream_sets": len(self.items)}

    def _one(self, a):
        gf = self.gf
        rep = gf.classify_set(a)
        cert_ok = None
        if rep.certificate is not None:
            try:
                gf.validate_certificate(rep.certificate)
                cert_ok = rep.certificate.member_bits == a.bits
            except gf.CertificateError:
                cert_ok = False
        return rep, cert_ok

    def run(self) -> Unit:
        clock = time.perf_counter
        latencies, results = [], []

        def work():
            for a in self.sets:
                t0 = clock()
                results.append(self._one(a))
                latencies.append(clock() - t0)

        _, wall, cpu = _timed(work)
        ok = [_label_ok(n, kind, rep, cert_ok)
              for (n, kind, _), (rep, cert_ok) in zip(self.items, results)]
        digest = canonical_digest([rep.to_json() for rep, _ in results])
        return Unit(latencies, ok, digest, wall, cpu)


def _label_ok(n: int, kind: str, rep, cert_ok) -> bool:
    """The report agrees with everything known from how the set was built."""
    lev_size = (3 ** (n - 1) + 1) // 2
    want = {
        "lev": dict(size=lev_size, sum_free=True, maximal=True, primitive=True,
                    aperiodic=True),
        "hyperplane": dict(size=3 ** (n - 1), sum_free=True, maximal=True,
                           primitive=True, sym_dim=n - 1),
        "lev_minus_point": dict(size=lev_size - 1, sum_free=True, maximal=False,
                                primitive=False),
        "greedy": dict(sum_free=True, maximal=True),
        "not_sum_free": dict(size=lev_size + 1, sum_free=False, maximal=False,
                             primitive=False),
    }[kind]
    if n == 4 and kind != "greedy":
        want["subprimitive"] = kind != "not_sum_free"
    got = rep.to_json()
    if any(got[k] != v for k, v in want.items()):
        return False
    if n > 4 and rep.subprimitive is not None:
        return False
    if n == 4 and rep.primitive and not rep.subprimitive:
        return False
    return cert_ok is (True if rep.primitive else None)


class SuiteStandard:
    """The standard self-check suite at the run's seed, in one process."""

    dims = tuple(range(1, 9))
    probe_dim = 3

    def __init__(self, gf, seed: int):
        self.gf = gf
        self.seed = seed
        self.info = {}

    def run(self) -> Unit:
        rep, wall, cpu = _timed(
            lambda: self.gf.run_suite("standard", seed=self.seed, jobs=1)
        )
        return Unit([wall], [rep.passed], canonical_digest(rep.to_json()), wall, cpu)


class InputError(RuntimeError):
    """The generated inputs differ from the pinned ones."""


WORKLOADS = {
    "dim4_search": Dim4Search,
    "classify_stream": ClassifyStream,
    "suite_standard": SuiteStandard,
}
