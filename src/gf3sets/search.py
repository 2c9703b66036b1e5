"""Exhaustive search for maximal sum-free sets, reduced by symmetry.

The engine generates sum-free sets in ascending index order and keeps a
branch only while the partial set is the least member of its orbit under
the full linear group, so each isomorphism class of maximal sets is
reported exactly once (dropping the largest element of a least orbit
member leaves a least orbit member, which makes the prefix tree of
canonical sets closed under truncation and the generation exhaustive).
A child that the symmetry of its parent already shows not to be least
in its orbit needs no lexmin test (after McKay, "Isomorph-free exhaustive
generation", 1998).  A node S carries the automorphisms that the
accepting walk of S recorded, and two rules drop such children S | {v}
before any test:

(i) the linear maps fixing the span of S pointwise act transitively on
    the points outside it, so of the children outside the span only the
    least is kept;
(ii) a child v inside the span is dropped when its orbit under the
    recorded automorphisms holds a smaller point u, since S | {u} is then
    an image of S | {v} and the smaller set.

The lexmin test of a child starts from what its parent knows.  A node
also carries the walk tables of S (see canon): plus[x] = S - x and
minus[x] = x - S for every index x.  At the empty set every entry is the
empty set, and the tables are passed down complete: the child S | {v}
adds the one point v - x to plus[x] and x - v to minus[x], one OR per
entry with the point rows of v, and its lexmin test reads them without
building tables of its own.  The point rows are the one-point sets
{v - x} and {x - v} over x, kept by the space, and every row references
one shared list of the ints 1 << i, so a row holds no ints of its own.
A child v inside the span of S starts its walk with the recorded
automorphisms of S that fix v; they fix S | {v} and are linear on its
span, so they are automorphisms of the child (canon says why pruning
with them is sound).  The child's recorded list keeps them.
The lexmin tests of one frontier, and those of one task, share one run
pair, a span table and a read table, handed to every test as it is (see
canon).

Blocked elements are maintained incrementally and read off the same
tables: adding v to S extends the forbidden region by v + S', v - S' and
S' - v for S' = S | {v}, which are plus'[-v], minus'[v] and plus'[v] of the
child's tables, and by v itself (-v = v + v is in v + S').  A node is
maximal exactly when the forbidden region covers everything.

Every node, in both engines, is built by one step from its parent, the
node of its set without the largest member; the unreduced engine carries
the tables too, without automorphisms.  A task hands a worker only the
bitset of its root, and the worker rebuilds the root's node by replay: it
adds the members to the empty set in increasing order, one child step
each.  That repeats the very steps by which the search reached the root,
so the replayed node equals the one the frontier held, its recorded
automorphisms included.  A reduced replay needs every prefix to pass its
lexmin test, which holds because the prefixes of a set least in its orbit
are least in theirs (above).  A resumed run replays its pending roots the
same way; loading a checkpoint refuses roots that are not sum-free, or
not least in their orbits when the search is reduced.

verify_main_theorem runs the search against the independent structural
enumeration of primitive sets, in both directions.  compute_t reads the
largest aperiodic size off the same reports.  lev_construction builds the
explicit half-of-a-hyperplane example in any dimension from 3 up.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from operator import or_
from typing import Optional

from . import canon, core, primitive, subspaces
from . import space as _sp
from .core import TernarySet, is_maximal_sum_free, is_sum_free, sym_group_bits
from .primitive import PrimitiveCertificate
from .space import iter_bits, orbit_bits

CHECKPOINT_VERSION = 1


def canonical_form(a: TernarySet) -> TernarySet:
    """The least set in the GL-orbit of a, under least-index-wins order."""
    return TernarySet(a.dim, canon.canonical_form_bits(a.bits, a.dim))


def stabilizer_order(a: TernarySet) -> int:
    return canon.canonicalize_bits(a.bits, a.dim)[1]


@dataclass(frozen=True)
class EnumerationReport:
    """Search outcome; canonical JSON excludes timing so reruns compare equal."""

    n: int
    min_size: int
    up_to_iso: bool
    engine: str
    counts_by_size: dict
    orbit_counts_by_size: dict
    counts_by_size_sym: dict
    representatives: tuple  # of (index tuple, stabilizer order, sym_dim)
    node_count: int
    wall_time_s: float = field(compare=False)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "min_size": self.min_size,
            "up_to_iso": self.up_to_iso,
            "engine": self.engine,
            "counts_by_size": {str(k): v for k, v in sorted(self.counts_by_size.items())},
            "orbit_counts_by_size": {
                str(k): v for k, v in sorted(self.orbit_counts_by_size.items())
            },
            "counts_by_size_sym": {
                f"{k[0]},{k[1]}": v
                for k, v in sorted(self.counts_by_size_sym.items())
            },
            "representatives": [
                {
                    "set": list(s),
                    "size": len(s),
                    "stabilizer_order": stab,
                    "sym_dim": sym_dim,
                }
                for s, stab, sym_dim in self.representatives
            ],
            "node_count": self.node_count,
        }


def _root(sp: _sp.Space, reduced: bool) -> tuple:
    """The search node of the empty set: (bits, cover, automorphisms, walk
    tables), with no automorphisms recorded in a reduced search and None
    otherwise, and every table entry empty.  A node's size and largest
    member are read off its bits."""
    return 0, 1, [] if reduced else None, ([0] * sp.size, [0] * sp.size)


def _child(sp: _sp.Space, node: tuple, v: int, reduced: bool,
           run: Optional[tuple] = None) -> Optional[tuple]:
    """The search node of S | {v} from the node of S, or None when the
    search is reduced and S | {v} is not least in its orbit.  Its walk
    tables are those of S with the one point v - x or x - v added to each
    entry, and its cover grows by the sets that they hold (see the module
    docstring).  run is the search run's pair of a span table and a read
    table, handed to the lexmin test as it is (see canon); with None the
    test makes its own."""
    sbits, cover, autos, (plus, minus) = node
    bits = sbits | 1 << v
    one_plus, one_minus = sp.point_rows(v)
    plus = list(map(or_, plus, one_plus))
    minus = list(map(or_, minus, one_minus))
    if reduced:
        autos = [a for a in autos if a[v] == v] if v < 3 ** canon._span_dim(sbits) else []
        # on acceptance the walk appends what it recorded to autos
        if not canon.is_lexmin_bits(bits, sp.n, autos, (plus, minus), run):
            return None
    cover |= plus[sp.neg[v]] | minus[v] | plus[v] | 1 << v
    return bits, cover, autos, (plus, minus)


def _replay(sp: _sp.Space, bits: int, reduced: bool, run: Optional[tuple] = None) -> tuple:
    """The search node of a set the search reaches, rebuilt by adding its
    members to the empty set in increasing order (see the module
    docstring)."""
    node = _root(sp, reduced)
    for v in iter_bits(bits):
        node = _child(sp, node, v, reduced, run)
    return node


def _prune_by_symmetry(sbits: int, free: int, autos: list) -> int:
    """The points v of free left by rules (i) and (ii) of the module
    docstring.  sbits is least in its orbit, so its span is [0, m) for a
    power m of 3, and autos are automorphisms of it, linear on that span."""
    m = 3 ** canon._span_dim(sbits)
    inside = free & ((1 << m) - 1)
    outside = free >> m << m
    met = 0  # the orbits of the points of inside seen so far
    for v in iter_bits(inside):
        if not met >> v & 1:
            orbit = orbit_bits(1 << v, autos)
            met |= orbit
            if orbit & (1 << v) - 1 == 0:
                continue
        inside ^= 1 << v
    return inside | outside & -outside


def _expand(sp: _sp.Space, min_size: int, reduced: bool, node: tuple,
            found: dict, run: Optional[tuple] = None) -> list:
    """Visit one node: record it in found when it is maximal and large
    enough, and return the children that remain to be searched.  run is
    as for _child."""
    sbits, cover, autos, _ = node
    size = sbits.bit_count()
    full = sp.full_bits
    if cover == full:
        if size >= min_size:
            found[sbits] = None
        return []
    free_above = ~cover & full & -(1 << sbits.bit_length())
    if size < min_size:
        # pair rule: of x and -x at most one can ever join
        f = free_above.bit_count()
        paired = (free_above & sp.neg_set_bits(free_above)).bit_count()
        if size + f - paired // 2 < min_size:
            return []
    if reduced:
        free_above = _prune_by_symmetry(sbits, free_above, autos)
    children = (_child(sp, node, v, reduced, run) for v in iter_bits(free_above))
    return [child for child in children if child is not None]


def _expand_frontier(n: int, min_size: int, reduced: bool, jobs: int):
    """Grow the search tree breadth-first to a task frontier.

    Layers are expanded until one holds at least 8 * jobs partial sets or
    comes out narrower than the layer before it.  Returns (tasks, found,
    nodes): the partial sets of that layer, whose subtrees remain to be
    searched, maximal sets already seen above it, and the node count so
    far.
    """
    sp = _sp.space(n)
    found: dict = {}
    run = ({}, {})
    layer = [_root(sp, reduced)]
    nodes = 0
    while len(layer) < 8 * jobs:
        nxt = []
        for node in layer:
            nxt += _expand(sp, min_size, reduced, node, found, run)
        nodes += len(layer)
        narrower = len(nxt) < len(layer)
        layer = nxt
        if narrower:
            break
    return [node[0] for node in layer], found, nodes


def _run_task(args) -> tuple:
    """DFS below one pending root, its node rebuilt by replay; returns the
    maximal sets found and the nodes visited.  Its lexmin tests share one
    run pair."""
    n, min_size, reduced, start_bits = args
    sp = _sp.space(n)
    run = ({}, {})
    stack = [_replay(sp, start_bits, reduced, run)]
    found: dict = {}
    nodes = 0
    while stack:
        nodes += 1
        stack += _expand(sp, min_size, reduced, stack.pop(), found, run)
    return sorted(found), nodes


def _pool_map(fn, args: list, workers: int):
    """Yield fn over args in order, each result as soon as it is done, in a
    pool of processes when workers > 1.  The pool's modules are imported
    only then, so a run that does not fork never loads them."""
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, args)
    else:
        yield from map(fn, args)


def _load_checkpoint(path: str, n: int, min_size: int, reduced: bool):
    """Read a checkpoint, refusing any content this search could not have
    written: the pending roots must be distinct sum-free sets of one size
    (the rest of one frontier layer), and every found set a maximal sum-free
    set of at least min_size, both least in their orbits when reduced."""
    with open(path) as fh:
        state = json.load(fh)
    if not isinstance(state, dict):
        raise ValueError("checkpoint is not a JSON object")
    if state.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {state.get('version')}")
    for key, want in (("dim", n), ("min_size", min_size), ("reduced", reduced)):
        if state.get(key) != want:
            raise ValueError(f"checkpoint {key} mismatch: {state.get(key)} != {want}")
    nodes = state.get("nodes")
    if type(nodes) is not int or nodes < 0:
        raise ValueError(f"checkpoint nodes is not a count: {nodes!r}")
    full = _sp.space(n).full_bits
    for key in ("pending", "found"):
        entries = state.get(key)
        if not isinstance(entries, list):
            raise ValueError(f"checkpoint {key} is not a list")
        for b in entries:
            if type(b) is not int or not 0 <= b <= full:
                raise ValueError(f"checkpoint {key} entry is not a set of F_3^{n}: {b!r}")
            a = TernarySet(n, b)
            if key == "pending":
                bad = not is_sum_free(a)
            else:
                bad = a.size < min_size or not is_maximal_sum_free(a)
            if bad or (reduced and not canon.is_lexmin_bits(b, n)):
                raise ValueError(
                    f"checkpoint {key} entry {a.indices()} cannot come from this search"
                )
    pending = state["pending"]  # a repeated or stray root would count its nodes twice
    if len(set(pending)) < len(pending) or len({b.bit_count() for b in pending}) > 1:
        raise ValueError("checkpoint pending is not one layer of distinct roots")
    return state


def _save_checkpoint(path: str, n: int, min_size: int, reduced: bool,
                     pending: list, found: dict, nodes: int) -> None:
    state = {
        "version": CHECKPOINT_VERSION,
        "dim": n,
        "min_size": min_size,
        "reduced": reduced,
        "pending": pending,
        "found": sorted(found),
        "nodes": nodes,
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh)
    os.replace(tmp, path)


def enumerate_maximal_sumfree(
    n: int,
    min_size: int = 1,
    up_to_iso: bool = True,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
) -> EnumerationReport:
    """All maximal sum-free subsets of F_3^n with at least min_size members.

    With up_to_iso the engine explores one representative per orbit and the
    plain counts are recovered through orbit sizes; without it every set is
    visited (dimension at most 3: the unreduced dimension-4 tree is far too
    large, and exists here as a cross-check oracle anyway).  jobs splits
    the frontier subtrees across processes, and the frontier is grown to
    about 8 subtrees per job; results and reports are identical for any
    worker count.  checkpoint names a JSON file used to resume an
    interrupted run and is rewritten after every finished subtree.
    """
    _sp.check_dim(n)
    if not 1 <= n <= 4:
        raise ValueError("enumeration is supported for dimensions 1 through 4")
    if n == 4 and not up_to_iso:
        raise ValueError("the unreduced dimension-4 search is not feasible")
    if min_size < 1:
        raise ValueError("min_size must be at least 1 (the empty set is never maximal)")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    t0 = time.time()
    reduced = up_to_iso

    if checkpoint and os.path.exists(checkpoint):
        state = _load_checkpoint(checkpoint, n, min_size, reduced)
        pending = list(state["pending"])
        found = {b: None for b in state["found"]}
        nodes = state["nodes"]
    else:
        pending, found, nodes = _expand_frontier(n, min_size, reduced, jobs)
        if checkpoint:
            _save_checkpoint(checkpoint, n, min_size, reduced, pending, found, nodes)

    task_args = [(n, min_size, reduced, b) for b in pending]
    results = _pool_map(_run_task, task_args, min(jobs, len(pending), os.cpu_count() or 1))
    for done, (got, sub_nodes) in enumerate(results, 1):
        for b in got:
            found[b] = None
        nodes += sub_nodes
        if checkpoint:
            _save_checkpoint(
                checkpoint, n, min_size, reduced, pending[done:], found, nodes
            )

    return _build_report(n, min_size, up_to_iso, found, nodes, time.time() - t0)


def _build_report(n, min_size, up_to_iso, found, nodes, wall) -> EnumerationReport:
    """Tally the found sets; a reduced search found one least member per
    orbit, which stands for order // stabilizer sets.  Stabilizers and
    symmetry groups are computed once per orbit, and so are the canonical
    forms of an unreduced search: the walk of one found set gives its form
    to every found set in the orbit of that form."""
    order = canon.gl_order(n)
    counts: dict = {}
    orbit_counts: dict = {}
    sym_counts: dict = {}
    forms: dict = {}  # canonical form -> (stabilizer order, sym_dim)
    form_of: dict = {}  # found set -> canonical form
    for b in found:
        size = b.bit_count()
        if b not in form_of:
            form = canon.canonical_form_bits(b, n)
            mates = {b} if up_to_iso else found.keys() & canon.orbit_of_bits(form, n)
            form_of.update(dict.fromkeys(mates, form))
        form = form_of[b]
        if form not in forms:
            stab = canon.canonicalize_bits(form, n)[1]
            forms[form] = (stab, round(math.log(sym_group_bits(form, n).bit_count(), 3)))
            orbit_counts[size] = orbit_counts.get(size, 0) + 1
        stab, sym_dim = forms[form]
        weight = order // stab if up_to_iso else 1
        counts[size] = counts.get(size, 0) + weight
        key = (size, sym_dim)
        sym_counts[key] = sym_counts.get(key, 0) + weight
    reps = [(tuple(iter_bits(f)), *forms[f]) for f in sorted(forms, key=primitive._set_key)]
    return EnumerationReport(
        n=n,
        min_size=min_size,
        up_to_iso=up_to_iso,
        engine="reduced" if up_to_iso else "unreduced",
        counts_by_size=counts,
        orbit_counts_by_size=orbit_counts,
        counts_by_size_sym=sym_counts,
        representatives=tuple(reps),
        node_count=nodes,
        wall_time_s=wall,
    )


@dataclass(frozen=True)
class VerificationVerdict:
    """Result of checking the classification in both directions."""

    n: int
    verified: bool
    forward_checked: int
    backward_checked: int
    counterexample: Optional[list]
    details: dict

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "verified": self.verified,
            "forward_checked": self.forward_checked,
            "backward_checked": self.backward_checked,
            "counterexample": self.counterexample,
            "details": self.details,
        }


def verify_main_theorem(
    n: int, jobs: int = 1, checkpoint: Optional[str] = None
) -> VerificationVerdict:
    """Check, exhaustively up to symmetry, that the maximal sum-free sets
    larger than a sixth of the space are exactly the primitive sets.

    Forward: every orbit representative from the search recognizes as
    primitive.  Backward: every primitive set is maximal sum-free and
    large enough; below dimension 4 the full structural enumeration is
    used, in dimension 4 the fixed-hyperplane stream (soundness of that
    reduction rests on hyperplane transitivity, which is itself checked
    here).  Both families are read as member columns, one lane per set of
    their size masks, and checked in one pass of core._maximal_sum_free_lanes.
    A failure names the first failing set in checking order (_set_key order
    below dimension 4, stream order in it, read off the stream) and how many
    sets preceded it.  Orbit representative sets from both sides must agree.
    """
    if not 1 <= n <= 4:
        raise ValueError("verification is supported for dimensions 1 through 4")
    threshold = 3**n // 6 + 1
    details: dict = {"threshold": threshold}
    report = enumerate_maximal_sumfree(
        n, threshold, up_to_iso=True, jobs=jobs, checkpoint=checkpoint
    )
    details["maximal_orbit_counts"] = {
        str(k): v for k, v in sorted(report.orbit_counts_by_size.items())
    }

    forward = 0
    for s, _, _ in report.representatives:
        a = TernarySet.from_indices(n, s)
        if primitive.recognize_primitive(a) is None:
            return VerificationVerdict(
                n, False, forward, 0, list(s), {**details, "direction": "forward"}
            )
        forward += 1

    if n <= 3:
        family = primitive._all_primitive_bits(n)
        columns, sizes = primitive._primitive_columns(n)
    else:
        planes = subspaces.enumerate_hyperplanes(4, avoid_origin=True)
        orbit = canon.orbit_of_bits(planes[0].members_bits, 4)
        details["hyperplane_orbit_size"] = len(orbit)
        if len(orbit) != len(planes):
            return VerificationVerdict(
                n, False, forward, 0, None,
                {**details, "direction": "backward",
                 "failure": "hyperplane transitivity"},
            )
        columns, sizes = primitive._fixed_hyperplane_family(4)
    backward = sum(mask.bit_count() for mask in sizes.values())
    lanes = (1 << backward) - 1
    failed = lanes & ~core._maximal_sum_free_lanes(columns, lanes, n)
    for size, mask in sizes.items():
        if size < threshold:
            failed |= mask
    if failed:
        backward = (failed & -failed).bit_length() - 1
        if n <= 3:
            bad = min((family[i] for i in iter_bits(failed)), key=primitive._set_key)
            backward = sum(primitive._set_key(b) < primitive._set_key(bad) for b in family)
        else:
            stream = primitive.iter_primitive_fixed_hyperplane(4)
            bad = next(itertools.islice(stream, backward, None))
        return VerificationVerdict(
            n, False, forward, backward,
            list(iter_bits(bad)), {**details, "direction": "backward"},
        )

    max_reps = {tuple(s) for s, _, _ in report.representatives}
    prim_reps = {tuple(iter_bits(r)) for r in primitive._orbit_reps(n)}
    details["orbit_reps_match"] = max_reps == prim_reps
    if max_reps != prim_reps:
        odd = sorted(max_reps ^ prim_reps)[0]
        return VerificationVerdict(
            n, False, forward, backward, list(odd),
            {**details, "direction": "orbit comparison"},
        )
    return VerificationVerdict(n, True, forward, backward, None, details)


def compute_t(n: int, jobs: int = 1, checkpoint: Optional[str] = None) -> int:
    """Largest size of an aperiodic maximal sum-free subset of F_3^n.

    Aperiodicity is a GL-invariant, so orbit representatives decide it.
    For n <= 3 every maximal set is enumerated.  For n = 4 the search is
    run from the theorem threshold upward; that is exact because an
    aperiodic maximal set of size 14 exists (the explicit construction),
    so the maximum is at least 14 and any larger candidate would have been
    enumerated.  checkpoint is passed to the search: at n = 4 a finished
    checkpoint of verify_main_theorem(4), which searches from the same
    size, replays at once.
    """
    if not 1 <= n <= 4:
        raise ValueError("t is computed for dimensions 1 through 4")
    min_size = 14 if n == 4 else 1
    report = enumerate_maximal_sumfree(
        n, min_size, up_to_iso=True, jobs=jobs, checkpoint=checkpoint
    )
    best = 0
    for s, _, sym_dim in report.representatives:
        if sym_dim == 0:
            best = max(best, len(s))
    if n == 4 and best < 14:
        raise RuntimeError(
            "inconclusive: the aperiodic witness of size 14 was not found"
        )
    return best


def lev_construction(n: int) -> tuple[TernarySet, PrimitiveCertificate]:
    """The explicit aperiodic maximal sum-free set of size (3^(n-1)+1)/2.

    Over the hyperplane H = {x : x_0 = 1} take U = {e_0} and X = {-e_0};
    the half W picks, from each translate pair {U+y, U-y}, the one whose
    lowest nonzero coordinate among positions 1..n-1 is 1.
    """
    if not 3 <= n <= _sp.MAX_DIM:
        raise ValueError(f"the construction needs 3 <= n <= {_sp.MAX_DIM}")
    wbits = 0
    for m in range(1, 3 ** (n - 1)):
        trits = _sp.decode(m, n - 1)
        if next(t for t in trits if t) == 1:
            wbits |= 1 << (1 + 3 * m)
    h = subspaces.affine_subspace(n, tuple(3**i for i in range(1, n)), 1)
    u = subspaces.affine_subspace(n, (), 1)
    x = PrimitiveCertificate("hyperplane", subspaces.affine_subspace(n, (), 2))
    cert = PrimitiveCertificate("derived", h, u, TernarySet(n, wbits), x)
    return TernarySet(n, wbits | 1 << 2), cert

