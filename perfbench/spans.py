"""Outside-in tracing of the quivsurf layers for the benchmark's traced run.

`Tracer.install` replaces every public function of the layer modules, and
every public method of the classes they define, by a wrapper that records
a span (id, parent id, name, start, end) in memory. The wrapper is bound in
every namespace that binds the original, so a call through a name imported
with ``from .linalg import rank_rational`` is traced as well. `uninstall`
puts the originals back. Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "reproduce", "exceptional", "toric", "quivers", "linalg")

SPANS = (
    "toric.h0_lattice_points",
    "toric.cohomology",
    "toric.intersect",
    "toric.rr_chi",
    "exceptional.search_abc",
    "exceptional.search_kronecker",
    "exceptional.verify_collection",
    "exceptional.check_table_case",
    "quivers.obstruction_report",
    "quivers.forbidden_full_subquiver",
    "quivers.full_subquiver",
    "quivers.euler_matrix_simples",
    "linalg.signature_symmetric",
    "linalg.rank_rational",
    "linalg.ExactMatrix.from_rows",
    "linalg.invert_unitriangular",
)
SEARCHES = ("exceptional.search_abc", "exceptional.search_kronecker")
REPRODUCE_ITEMS = (
    "classification_item",
    "five_vertex_item",
    "four_vertex_item",
    "divisor_table_item",
    "isolated_case_item",
    "kronecker_item",
    "star_family_item",
    "surface_theorems_item",
    "kunneth_item",
    "solver_item",
)

METRICS = (
    tuple(f"{s}.{stat}" for s in SPANS for stat in ("calls", "self_s"))
    + ("toric.h0_lattice_points.repeat_ratio", "toric.h0_lattice_points.zero_ratio")
    + tuple(f"{s}.coh_calls_per_box_point" for s in SEARCHES)
    + tuple(f"reproduce.{item}.total_s" for item in REPRODUCE_ITEMS)
    + ("cli.main.self_s",)
    + tuple(f"{layer}.self_s" for layer in LAYERS)
    + ("trace.overhead_ratio",)
)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "count" if name.endswith(".calls") else "ratio"


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its children. The tracer
    runs in one thread with a call stack, so children never overlap."""
    result = {sid: t1 - t0 for sid, _, _, t0, t1 in spans}
    for _, parent, _, t0, t1 in spans:
        if parent in result:
            result[parent] -= t1 - t0
    return result


class Tracer:
    """Spans of the current job, and per-name totals over the jobs so far."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start ns, end ns) of the current job
        self._stack = [0]
        self._next_id = 1
        self._plan = []
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.search_coh = defaultdict(int)
        self.search_box = defaultdict(int)
        self._h0_seen = set()
        self._h0_surfaces = {}  # keeps surfaces alive so their ids stay unique
        self.h0_repeats = 0
        self.h0_zeros = 0

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        if not self._plan:
            self._plan = self._make_plan()
        for target, key, _, wrapper in self._plan:
            _assign(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original, _ in self._plan:
            _assign(target, key, original)

    def _make_plan(self) -> list:
        """(namespace or class, attribute, original, wrapper) for every binding."""
        modules = [sys.modules[f"quivsurf.{layer}"] for layer in LAYERS]
        namespaces = [vars(m) for m in modules] + [vars(sys.modules["quivsurf"])]
        plan = []
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapper = self._wrap(f"{layer}.{attr}", value)
                    plan += [(ns, key, value, wrapper) for ns in namespaces for key, bound in ns.items() if bound is value]
                elif inspect.isclass(value):
                    # the surface methods are the toric layer: toric.cohomology, not toric.ToricSurface.cohomology
                    prefix = "" if value.__name__ == "ToricSurface" else f"{value.__name__}."
                    for name, raw in vars(value).items():
                        if name.startswith("_"):
                            continue
                        span = f"{layer}.{prefix}{name}"
                        if isinstance(raw, (classmethod, staticmethod)):
                            plan.append((value, name, raw, type(raw)(self._wrap(span, raw.__func__))))
                        elif inspect.isfunction(raw):
                            plan.append((value, name, raw, self._wrap(span, raw)))
        return plan

    def _wrap(self, name, fn):
        if name == "toric.h0_lattice_points":
            observe = self._observe_h0
        elif name in SEARCHES:
            observe = functools.partial(self._observe_search, name, inspect.signature(fn))
        else:
            observe = None
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # --- per-call observations ---------------------------------------------------

    def _observe_h0(self, args, kwargs, result) -> None:
        surface, d = args
        key = (id(surface), tuple(int(c) for c in d))
        if key in self._h0_seen:
            self.h0_repeats += 1
        else:
            self._h0_seen.add(key)
            self._h0_surfaces[id(surface)] = surface
        self.h0_zeros += result == 0

    def _observe_search(self, name, signature, args, kwargs, result) -> None:
        if getattr(result, "diagnostic", None) is not None:
            return  # an impossible triple returns before it looks at the box
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        box = (2 * bound.arguments["bound"] + 1) ** bound.arguments["surface"].picard_rank
        self.search_box[name] += box

    # --- aggregation ---------------------------------------------------------------

    def collect(self) -> None:
        """Fold the spans of the job that just ended into the totals."""
        spans = self.spans
        parents = {sid: (parent, name) for sid, parent, name, _, _ in spans}
        for sid, self_ns in self_times(spans).items():
            self.self_ns[parents[sid][1]] += self_ns
        for sid, parent, name, t0, t1 in spans:
            self.calls[name] += 1
            self.total_ns[name] += t1 - t0
            if name == "toric.cohomology":
                while parent in parents and parents[parent][1] not in SEARCHES:
                    parent = parents[parent][0]
                if parent in parents:
                    self.search_coh[parents[parent][1]] += 1
        spans.clear()

    def metrics(self, overhead_ratio: float) -> dict:
        values = {}
        for s in SPANS:
            values[f"{s}.calls"] = self.calls[s]
            values[f"{s}.self_s"] = self.self_ns[s] / 1e9
        h0 = self.calls["toric.h0_lattice_points"]
        values["toric.h0_lattice_points.repeat_ratio"] = self.h0_repeats / h0 if h0 else 0.0
        values["toric.h0_lattice_points.zero_ratio"] = self.h0_zeros / h0 if h0 else 0.0
        for s in SEARCHES:
            box = self.search_box[s]
            values[f"{s}.coh_calls_per_box_point"] = self.search_coh[s] / box if box else 0.0
        for item in REPRODUCE_ITEMS:
            values[f"reproduce.{item}.total_s"] = self.total_ns[f"reproduce.{item}"] / 1e9
        values["cli.main.self_s"] = self.self_ns["cli.main"] / 1e9
        for layer in LAYERS:
            values[f"{layer}.self_s"] = (
                sum(ns for name, ns in self.self_ns.items() if name.startswith(layer + ".")) / 1e9
            )
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": values[name], "unit": metric_unit(name)} for name in METRICS}

    def top_self(self, k: int = 5) -> list:
        return sorted(self.self_ns.items(), key=lambda kv: -kv[1])[:k]


def _assign(target, key, value) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)
