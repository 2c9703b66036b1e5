"""Command line front end.

Exit status is 0 when the requested computation succeeds (and, for checks
and verification, the claim holds), 1 when a verification or suite fails
or a counterexample is reported, and 2 for usage or input parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import primitive, search, statements, subspaces, suite
from .core import TernarySet, format_set_text, parse_set_text


def _read_set(path: str) -> TernarySet:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    return parse_set_text(text)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _parse_hyperplane(spec: str, n: int) -> subspaces.AffineSubspace:
    try:
        normal, label = (int(p) for p in spec.split(","))
    except ValueError:
        raise ValueError(
            f"bad hyperplane {spec!r}; expected 'NORMAL,LABEL' as two integers"
        ) from None
    return subspaces.hyperplane_from_normal(n, normal, label)


def _cmd_enumerate_primitive(args) -> int:
    sets = primitive.enumerate_primitive(args.dim, up_to_iso=args.up_to_iso)
    if args.format == "json":
        _print_json({
            "n": args.dim,
            "up_to_iso": args.up_to_iso,
            "count": len(sets),
            "sets": [list(s.indices()) for s in sets],
        })
    else:
        kind = "orbit representative(s)" if args.up_to_iso else "set(s)"
        print(f"dimension {args.dim}: {len(sets)} primitive {kind}")
        for s in sets:
            print(" ", list(s.indices()))
    return 0


def _report_text(rep: search.EnumerationReport) -> None:
    print(
        f"dimension {rep.n}, min size {rep.min_size}, {rep.engine} engine, "
        f"{rep.node_count} nodes, {rep.wall_time_s:.1f}s"
    )
    for size in sorted(rep.counts_by_size):
        print(
            f"  size {size}: {rep.counts_by_size[size]} sets "
            f"in {rep.orbit_counts_by_size.get(size, 0)} orbit(s)"
        )
    for s, stab, sym_dim in rep.representatives:
        print(f"  rep {list(s)} stabilizer {stab} sym_dim {sym_dim}")


def _cmd_enumerate_maximal(args) -> int:
    rep = search.enumerate_maximal_sumfree(
        args.dim,
        args.min_size,
        up_to_iso=args.up_to_iso,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
    )
    if args.format == "json":
        _print_json(rep.to_json())
    else:
        _report_text(rep)
    return 0


def _cmd_verify_main(args) -> int:
    verdict = search.verify_main_theorem(
        args.dim, jobs=args.jobs, checkpoint=args.checkpoint
    )
    if args.format == "json":
        _print_json(verdict.to_json())
    else:
        word = "VERIFIED" if verdict.verified else "FAILED"
        print(
            f"dimension {args.dim}: {word} "
            f"(forward {verdict.forward_checked} orbit(s), "
            f"backward {verdict.backward_checked} sets)"
        )
        if verdict.counterexample is not None:
            print(f"  counterexample: {verdict.counterexample}")
        for key, val in sorted(verdict.details.items()):
            print(f"  {key}: {val}")
    return 0 if verdict.verified else 1


def _cmd_compute_t(args) -> int:
    value = search.compute_t(args.dim, jobs=args.jobs, checkpoint=args.checkpoint)
    if args.format == "json":
        _print_json({"n": args.dim, "t": value})
    else:
        print(value)
    return 0


def _cmd_construct_lev(args) -> int:
    a, cert = search.lev_construction(args.dim)
    if args.format == "json":
        _print_json({
            "n": args.dim,
            "size": a.size,
            "set": list(a.indices()),
            "certificate": cert.to_json(),
        })
    else:
        print(format_set_text(a), end="")
        print(f"# size {a.size}")
    return 0


def _cmd_classify(args) -> int:
    a = _read_set(args.set)
    rep = primitive.classify_set(a)
    if args.format == "json":
        _print_json(rep.to_json())
    else:
        print(f"dimension {rep.dim}, size {rep.size}")
        print(f"  sum-free: {rep.sum_free}")
        print(f"  maximal sum-free: {rep.maximal}")
        if rep.sym_dim is not None:
            print(f"  symmetry dimension: {rep.sym_dim} (aperiodic: {rep.aperiodic})")
        print(f"  primitive: {rep.primitive}")
        if rep.certificate is not None:
            print(f"  certificate: {json.dumps(rep.certificate.to_json(), sort_keys=True)}")
        if rep.subprimitive is not None:
            print(f"  subprimitive: {rep.subprimitive}")
    return 0


def _cmd_check(args) -> int:
    a = _read_set(args.set)
    if args.lemma:
        kwargs = {}
        if args.k is not None:
            kwargs["k"] = args.k
        if args.b is not None:
            kwargs["b"] = _read_set(args.b)
        if args.j is not None:
            kwargs["j"] = _parse_hyperplane(args.j, a.dim)
        result = statements.check_lemma(args.lemma, a, **kwargs)
    else:
        h = _parse_hyperplane(args.h, a.dim) if args.h is not None else None
        result = statements.check_proposition(args.prop, a, h=h)
    if args.format == "json":
        _print_json(result.to_json())
    else:
        print(f"{result.name}: {result.status}")
        if result.detail:
            print(f"  {result.detail}")
        if result.witness:
            print(f"  witness: {json.dumps(result.witness, sort_keys=True)}")
    return 1 if result.status == "counterexample" else 0


def _cmd_suite(args) -> int:
    rep = suite.run_suite(
        args.name, jobs=args.jobs, seed=args.seed, samples=args.samples
    )
    if args.format == "json":
        _print_json(rep.to_json())
    else:
        for c in rep.checks:
            print(f"{c.status:16s} {c.name}: {c.detail}")
        print(f"suite {rep.suite}: {'PASS' if rep.passed else 'FAIL'}")
        for name, seconds in rep.timings:
            print(f"{seconds:9.3f} s  {name}", file=sys.stderr)
    return rep.exit_code


def _add_common(sub, *, dim=False, fmt=True, jobs=False, checkpoint=False):
    if dim:
        sub.add_argument("--dim", type=int, required=True, metavar="N",
                         help="ambient dimension")
    if fmt:
        sub.add_argument("--format", choices=("text", "json"), default="text")
    if jobs:
        sub.add_argument("--jobs", type=int, default=1, metavar="J",
                         help="worker processes; reports do not depend on this")
    if checkpoint:
        sub.add_argument("--checkpoint", metavar="PATH",
                         help="JSON state file for resuming an interrupted search")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gf3sets",
        description="Maximal sum-free sets over ternary vector spaces.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate-primitive",
                        help="list primitive sets, whole or up to symmetry")
    _add_common(p, dim=True)
    p.add_argument("--up-to-iso", action="store_true")
    p.set_defaults(func=_cmd_enumerate_primitive)

    p = subs.add_parser("enumerate-maximal",
                        help="search for maximal sum-free sets")
    _add_common(p, dim=True, jobs=True, checkpoint=True)
    p.add_argument("--min-size", type=int, default=1, metavar="S")
    p.add_argument("--up-to-iso", action="store_true")
    p.set_defaults(func=_cmd_enumerate_maximal)

    p = subs.add_parser("verify-main",
                        help="check the classification in both directions")
    _add_common(p, dim=True, jobs=True, checkpoint=True)
    p.set_defaults(func=_cmd_verify_main)

    p = subs.add_parser("compute-t",
                        help="largest aperiodic maximal sum-free size")
    _add_common(p, dim=True, jobs=True, checkpoint=True)
    p.set_defaults(func=_cmd_compute_t)

    p = subs.add_parser("construct-lev",
                        help="the explicit aperiodic example with its certificate")
    _add_common(p, dim=True)
    p.set_defaults(func=_cmd_construct_lev)

    p = subs.add_parser("classify", help="full report on one set")
    _add_common(p)
    p.add_argument("set", metavar="FILE", help="set file, or - for stdin")
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("check", help="test one named statement on a set")
    _add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lemma", choices=statements.statement_ids("lemma"))
    group.add_argument("--prop", choices=statements.statement_ids("proposition"))
    p.add_argument("--k", type=int, help="flat dimension for dense_affine")
    p.add_argument("--b", metavar="FILE", help="subset file for disjoint_transfer")
    p.add_argument("--j", metavar="NORMAL,LABEL",
                   help="hyperplane for disjoint_transfer")
    p.add_argument("--h", metavar="NORMAL,LABEL",
                   help="hyperplane hypothesis for the covering propositions")
    p.add_argument("set", metavar="FILE", help="set file, or - for stdin")
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("suite", help="run a named battery of checks")
    _add_common(p, jobs=True)
    p.add_argument("--name", choices=suite.SUITE_NAMES, default="standard")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None, metavar="K",
                   help="override sample counts of the randomized checks (1 to 100000)")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
