"""Call tracing for traced benchmark runs, installed from outside the library.

Two kinds of wrapper are installed on every binding of the traced functions
in the imported gf3sets modules, including ``from ... import`` copies:

* span layers (suite, search, canon, primitive, subspaces, halves,
  kneser): every public module-level function, and GroupElement.apply_bits,
  records one span per call;
* kernel layers (space, core): the Space methods and the core predicates
  record only an aggregated count and time per calling layer, because a
  span per kernel call would cost more than the kernels themselves.

Every traced call subtracts its time from its caller's self time, so the
self times of all layers (plus "bench", the benchmark's own code) add up to
the traced wall time.  install() fails if any binding of a traced function
is left unwrapped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array

SPAN_LAYERS = ("suite", "search", "canon", "primitive", "subspaces", "halves", "kneser")
SPAN_METHODS = {"canon": {"GroupElement": ("apply_bits",)}}
KERNELS = {
    "space": {"Space": ("translate_bits", "neg_set_bits", "sumset_bits", "span_bits")},
    "core": ("blocked_cover_bits", "is_sum_free", "sym_group_bits"),
}
COUNTED = {"space": {"Space": ("add",)}}  # count only: too cheap to time

# an outcome tag kept on each span of these functions
TAGS = {
    "canon.is_lexmin_bits": lambda r: 1 if r else 0,
    "primitive.recognize_primitive": lambda r: 0 if r is None else 1,
    "search.enumerate_maximal_sumfree": lambda r: -1 if r is None else r.node_count,
}

LAYERS = ("bench",) + SPAN_LAYERS + ("space", "core")


def _modules(package: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def _namespaces(package: str) -> list:
    """Module and class dictionaries that can hold a function binding."""
    out = []
    for mod in _modules(package):
        out.append(mod)
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__.startswith(package):
                out.append(obj)
    return out


def _targets(package: str, layer: str, spec) -> list:
    """(qualified name, function) for one layer's traced functions."""
    mod = sys.modules[f"{package}.{layer}"]
    if isinstance(spec, dict):
        return [(f"{layer}.{cls_name}.{m}", vars(getattr(mod, cls_name))[m])
                for cls_name, methods in spec.items() for m in methods]
    return [(f"{layer}.{name}", getattr(mod, name)) for name in spec]


def _public_functions(package: str, layer: str) -> tuple:
    """Public functions defined in the module.

    Generator functions are left out: a wrapper would time only the creation
    of the generator, so their work stays in the consumer's self time.
    """
    mod = sys.modules[f"{package}.{layer}"]
    return tuple(
        name for name, obj in vars(mod).items()
        if not name.startswith("_") and callable(obj) and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == mod.__name__
        and not inspect.isgeneratorfunction(obj)
    )


def _references(obj, originals: dict, depth: int = 0):
    """Yield the originals reachable from a container, default or closure."""
    if depth > 3:
        return
    if id(obj) in originals and obj is originals[id(obj)]:
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _references(v, originals, depth + 1)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for v in obj:
            yield from _references(v, originals, depth + 1)
    elif isinstance(obj, types.FunctionType) and not getattr(obj, "_traced", False):
        cells = [c.cell_contents for c in obj.__closure__ or () if _filled(c)]
        for v in (obj.__defaults__ or ()) + tuple(cells):
            yield from _references(v, originals, depth + 1)
        for v in (obj.__kwdefaults__ or {}).values():
            yield from _references(v, originals, depth + 1)


def _filled(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


class Tracer:
    """Per-call spans for the span layers, aggregates for the kernels."""

    def __init__(self):
        self.root = [0.0, "bench"]  # [time of traced children, layer]
        self.stack = [self.root]
        self.names: list[str] = []
        self.layer_of: list[str] = []
        # one entry per span, in completion order
        self.span_name = array("H")
        self.span_caller = array("H")
        self.span_start = array("d")
        self.span_dur = array("d")
        self.span_self = array("d")
        self.span_outer = array("b")  # not nested in a call of the same function
        self.span_tag = array("q")
        self.kernels: dict = {}  # (name, calling layer) -> [calls, total_s, self_s]
        self.counts: dict = {}  # (name, calling layer) -> calls
        self.wrapped = 0

    def install(self, package: str = "gf3sets") -> None:
        targets = []
        for layer in SPAN_LAYERS:
            for spec in (_public_functions(package, layer), SPAN_METHODS.get(layer, {})):
                targets += [(q, f, self._span) for q, f in _targets(package, layer, spec)]
        for layer, spec in KERNELS.items():
            targets += [(q, f, self._kernel) for q, f in _targets(package, layer, spec)]
        for layer, spec in COUNTED.items():
            targets += [(q, f, self._count) for q, f in _targets(package, layer, spec)]

        wrappers = {}
        originals = {}
        for qname, fn, make in targets:
            if id(fn) in wrappers:
                raise RuntimeError(f"{qname} is bound twice among the traced names")
            wrappers[id(fn)] = make(fn, qname)
            originals[id(fn)] = fn

        for ns in _namespaces(package):
            for attr, value in list(vars(ns).items()):
                if id(value) in originals and value is originals[id(value)]:
                    setattr(ns, attr, wrappers[id(value)])
                    self.wrapped += 1
        self._check_unwrapped(package, originals)

    def _check_unwrapped(self, package: str, originals: dict) -> None:
        left = []
        for ns in _namespaces(package):
            for attr, value in vars(ns).items():
                for fn in _references(value, originals):
                    left.append(f"{getattr(ns, '__name__', ns)}.{attr} -> {fn.__qualname__}")
        if left:
            raise RuntimeError("traced functions left unwrapped: " + "; ".join(left))

    def _intern(self, qname: str) -> int:
        self.names.append(qname)
        self.layer_of.append(qname.split(".")[0])
        return len(self.names) - 1

    def _span(self, fn, qname: str):
        nid = self._intern(qname)
        layer = self.layer_of[nid]
        tag = TAGS.get(qname)
        stack, clock = self.stack, time.perf_counter
        names, callers, starts = self.span_name, self.span_caller, self.span_start
        durs, selfs, outers, tags = self.span_dur, self.span_self, self.span_outer, self.span_tag
        depth = [0]

        def traced(*args, **kwargs):
            caller = stack[-1]
            frame = [0.0, layer]
            stack.append(frame)
            depth[0] += 1
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - t0
                depth[0] -= 1
                stack.pop()
                caller[0] += dur
                names.append(nid)
                callers.append(LAYERS.index(caller[1]))
                starts.append(t0)
                durs.append(dur)
                selfs.append(dur - frame[0])
                outers.append(depth[0] == 0)
                tags.append(-1 if tag is None else tag(result))

        return self._mark(traced, fn)

    def _kernel(self, fn, qname: str):
        layer = qname.split(".")[0]
        stack, clock, agg = self.stack, time.perf_counter, self.kernels

        def traced(*args, **kwargs):
            caller = stack[-1]
            frame = [0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                caller[0] += dur
                key = (qname, caller[1])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]

        return self._mark(traced, fn)

    def _count(self, fn, qname: str):
        stack, counts = self.stack, self.counts

        def traced(*args, **kwargs):
            key = (qname, stack[-1][1])
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return self._mark(traced, fn)

    @staticmethod
    def _mark(traced, fn):
        functools.update_wrapper(traced, fn)
        traced._traced = True
        return traced

    # -- reading the trace ---------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-function calls, time and self time; per-layer self time."""
        funcs: dict = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for nid, dur, self_s, outer, tag in zip(
            self.span_name, self.span_dur, self.span_self, self.span_outer, self.span_tag
        ):
            qname = self.names[nid]
            rec = funcs.get(qname)
            if rec is None:
                rec = funcs[qname] = {"calls": 0, "s": 0.0, "self_s": 0.0, "tags": {}}
            rec["calls"] += 1
            rec["self_s"] += self_s
            if outer:
                rec["s"] += dur
            if tag >= 0:
                t = rec["tags"].setdefault(tag, [0, 0.0])
                t[0] += 1
                t[1] += dur if outer else 0.0
            layer_self[self.layer_of[nid]] += self_s
        by_caller: dict = {}
        for (qname, caller), (calls, total, self_s) in self.kernels.items():
            rec = funcs.setdefault(qname, {"calls": 0, "s": 0.0, "self_s": 0.0, "tags": {}})
            rec["calls"] += calls
            rec["s"] += total
            rec["self_s"] += self_s
            layer_self[qname.split(".")[0]] += self_s
            by_caller.setdefault(qname, {})[caller] = [calls, round(total, 6)]
        for (qname, caller), calls in self.counts.items():
            rec = funcs.setdefault(qname, {"calls": 0, "s": 0.0, "self_s": 0.0, "tags": {}})
            rec["calls"] += calls
            by_caller.setdefault(qname, {})[caller] = [calls, None]
        layer_self["bench"] = wall_s - self.root[0]
        return {"functions": funcs, "layer_self_s": layer_self, "kernels_by_caller": by_caller}

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, caller layer, start, dur, self."""
        with open(path, "w") as fh:
            fh.write("name\tcaller\tstart_s\tdur_s\tself_s\ttag\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for nid, cid, start, dur, self_s, tag in zip(
                self.span_name, self.span_caller, self.span_start,
                self.span_dur, self.span_self, self.span_tag,
            ):
                fh.write(f"{self.names[nid]}\t{LAYERS[cid]}\t{start - t0:.6f}\t"
                         f"{dur:.6f}\t{self_s:.6f}\t{tag}\n")


# metric prefix -> traced functions whose calls and time it sums
GROUPS = {
    "canon.canonicalize": ("canon.canonicalize_bits", "canon.canonical_form_bits",
                           "canon.stabilizer_order_bits"),
    "canon.apply_bits": ("canon.GroupElement.apply_bits",),
    "space.translate": ("space.Space.translate_bits",),
    "space.neg": ("space.Space.neg_set_bits",),
    "space.sumset": ("space.Space.sumset_bits",),
    "space.span": ("space.Space.span_bits",),
    "core.blocked_cover": ("core.blocked_cover_bits",),
    "core.sum_free": ("core.is_sum_free",),
    "core.sym_group": ("core.sym_group_bits",),
    "subspaces.hull": ("subspaces.affine_hull_bits", "subspaces.affine_hull"),
    "subspaces.hyperplanes_within": ("subspaces.hyperplanes_within",),
    "subspaces.affine_subspace": ("subspaces.affine_subspace",),
    "halves.is_half": ("halves.is_half",),
    "halves.enumerate_halves": ("halves.enumerate_halves",),
    "primitive.recognize": ("primitive.recognize_primitive",),
    "primitive.validate": ("primitive.validate_certificate",),
    "primitive.subprimitive": ("primitive.is_subprimitive",),
    "primitive.check_lemma": ("primitive.check_lemma",),
    "kneser.check": ("kneser.kneser_check", "kneser.full_sumset_check",
                     "kneser.difference_cover_check"),
    "kneser.witness": ("kneser.find_stabilizer_witness",),
}


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from a trace summary."""
    funcs = summary["functions"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "tags": {}}

    def f(qname):
        return funcs.get(qname, empty)

    out = {}
    for prefix, names in GROUPS.items():
        out[f"{prefix}_calls"] = (sum(f(q)["calls"] for q in names), "count")
        out[f"{prefix}_s"] = (sum(f(q)["s"] for q in names), "s")
    lexmin = f("canon.is_lexmin_bits")
    accepted = lexmin["tags"].get(1, [0, 0.0])
    rejected = lexmin["tags"].get(0, [0, 0.0])
    out["canon.lexmin_calls"] = (lexmin["calls"], "count")
    out["canon.lexmin_accepted"] = (accepted[0], "count")
    out["canon.lexmin_accept_s"] = (accepted[1], "s")
    out["canon.lexmin_reject_s"] = (rejected[1], "s")
    out["primitive.recognize_hits"] = (
        f("primitive.recognize_primitive")["tags"].get(1, [0])[0], "count")
    out["space.add_calls"] = (f("space.Space.add")["calls"], "count")
    search = f("search.enumerate_maximal_sumfree")
    nodes = sum(tag * calls for tag, (calls, _) in search["tags"].items())
    out["search.nodes"] = (nodes, "count")
    out["search.nodes_per_s"] = (nodes / search["s"] if search["s"] else 0.0, "1/s")
    for layer, self_s in summary["layer_self_s"].items():
        out[f"{layer}.self_s"] = (self_s, "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in sorted(out.items())}
