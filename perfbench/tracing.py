"""Outside-in tracing of sparselab's layers, and the per-layer metrics.

The worker wraps the public functions listed in ``TRACED`` and records one
span (name, start, end, parent span, run id) per call, in memory, together
with the counters each layer's result carries (bundles built, subsets
examined, solver method, walk size and mass lost, trials).  Functions in
``AGGREGATED`` run far more than 10^4 times in one call, so they record only
a call count and a total time per parent span.

A wrapper replaces the function under every name that refers to it in any
sparselab module, because the modules bind graph functions with
``from .graph import ...``.

``layer_metrics`` turns one traced call's record into the per-layer metrics
named in BENCHMARK.json.  A layer's time counts the outermost of its spans
only; a self time is a span's duration minus what its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from time import perf_counter

TRACED = {
    "graph": (
        "make_clique", "uniform_clique_weight", "sample_regular_multigraph", "scale_weights",
        "collapse_multiedges", "first_matchings_subgraph", "read_edge_list",
    ),
    "cuts": ("cut_error_exhaustive", "regular_vs_clique_exhaustive", "cut_error_sampled"),
    "spectral": ("spectral_error",),
    "nbwalk": ("certify_lower_bound", "pseudo_girth"),
    "martingale": ("simulate_reveal", "empirical_tail"),
}
AGGREGATED = {"graph": ("sample_matching_partners",)}
GRAPH_BUILDERS = {
    "graph.make_clique", "graph.sample_regular_multigraph", "graph.scale_weights",
    "graph.collapse_multiedges", "graph.first_matchings_subgraph", "graph.read_edge_list",
}
CLI_SPAN = "cli.main"
UNITS = {
    "graph.make_clique_s": "s",
    "graph.bundles_built": "count",
    "graph.clique_detect_s": "s",
    "graph.sample_s": "s",
    "graph.sample_calls": "count",
    "graph.transform_s": "s",
    "graph.read_s": "s",
    "cuts.exhaustive_s": "s",
    "cuts.subsets_examined": "count",
    "cuts.subsets_per_s": "1/s",
    "cuts.sampled_s": "s",
    "spectral.solve_s": "s",
    "spectral.solves": "count",
    "spectral.solves_clique": "count",
    "spectral.solves_whitening": "count",
    "nbwalk.certify_s": "s",
    "nbwalk.pseudo_girth_s": "s",
    "nbwalk.walk_s": "s",
    "nbwalk.walk_steps": "count",
    "nbwalk.directed_edges": "count",
    "nbwalk.mass_lost": "mass",
    "martingale.tail_s": "s",
    "martingale.reveal_s": "s",
    "martingale.trials_per_s": "1/s",
    "harness.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _attrs(name: str, args: inspect.BoundArguments, out) -> dict:
    """Counters carried by a layer call's arguments and result."""
    if name in GRAPH_BUILDERS:
        return {"bundles": out.num_bundles}
    if name == "cuts.regular_vs_clique_exhaustive":
        return {"subsets": out[0].subsets_examined}
    if name == "cuts.cut_error_exhaustive":
        return {"subsets": out.subsets_examined}
    if name == "spectral.spectral_error":
        return {"method": out.method}
    if name == "nbwalk.certify_lower_bound":
        graph = args.arguments["graph"]
        return {
            "walk_steps": graph.n * args.arguments["g"],
            "directed_edges": 2 * graph.num_bundles,
            "mass_lost": out.identity_checks.total_mass_loss,
        }
    if name == "martingale.empirical_tail":
        return {"trials": args.arguments["trials"]}
    return {}


class Recorder:
    """Spans and aggregated call counts of one traced run, kept in memory."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.aggregates: dict[tuple[str, int | None], list] = {}
        self.certify_calls: list[tuple[int, object, int]] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"run": self.run_id, "name": name, "start": perf_counter(), "end": None, "parent": parent, "attrs": {}})
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid]["end"] = perf_counter()
        self.stack.pop()

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            bound = signature.bind(*args, **kwargs)
            self.spans[sid]["attrs"] = _attrs(name, bound, out)
            if name == "nbwalk.certify_lower_bound":
                self.certify_calls.append((sid, bound.arguments["graph"], bound.arguments["g"]))
            return out

        signature = inspect.signature(fn)
        return wrapper

    def aggregate(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                key = (name, self.stack[-1] if self.stack else None)
                entry = self.aggregates.get(key)
                if entry is None:
                    self.aggregates[key] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        return wrapper

    def to_json(self) -> dict:
        return {
            "run": self.run_id,
            "spans": self.spans,
            "aggregates": [
                {"run": self.run_id, "name": name, "parent": parent, "count": count, "total": total}
                for (name, parent), (count, total) in self.aggregates.items()
            ],
        }


def instrument(recorder: Recorder) -> tuple[dict, list[str]]:
    """Wrap the traced functions of the imported sparselab package.

    Returns the original functions by qualified name, and the qualified names
    that were not found.  A missing name is skipped, so the trace still runs
    after a function is removed, but the run reports it: its layer metric
    then reads 0 because nothing was wrapped, not because it took no time.
    """
    modules = [m for name, m in list(sys.modules.items()) if name == "sparselab" or name.startswith("sparselab.")]
    harness = sys.modules["sparselab.harness"]
    plan = [(mod, fn, recorder.span) for mod, fns in TRACED.items() for fn in fns]
    plan += [(mod, fn, recorder.aggregate) for mod, fns in AGGREGATED.items() for fn in fns]
    plan += [("harness", fn, recorder.span) for fn in vars(harness) if fn.startswith("run_")]
    originals, missing = {}, []
    for mod, fn, wrap in plan:
        original = getattr(sys.modules.get(f"sparselab.{mod}"), fn, None)
        if not callable(original):
            missing.append(f"{mod}.{fn}")
            continue
        wrapper = wrap(f"{mod}.{fn}", original)
        originals[f"{mod}.{fn}"] = original
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return originals, missing


def retime_pseudo_girth(recorder: Recorder, pseudo_girth) -> None:
    """Time the public ``pseudo_girth`` on each certified graph.

    The certificate runs its pseudo-girth scan through a private function, so
    the scan is timed again, after the CLI call, on the same graph.  A
    certificate that already called the public function is not timed twice.
    """
    spans = recorder.spans
    for sid, graph, g in recorder.certify_calls:
        if any(s["name"] == "nbwalk.pseudo_girth" and sid in _ancestors(spans, s["parent"]) for s in spans):
            continue
        recorder.span("nbwalk.pseudo_girth", pseudo_girth)(graph, g)


def _ancestors(spans: list[dict], parent: int | None):
    """Span ids on the chain from ``parent`` up to the root."""
    while parent is not None:
        yield parent
        parent = spans[parent]["parent"]


# -- reduction to metrics ---------------------------------------------------------


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _outside(spans: list[dict], parent: int | None, names) -> bool:
    """True when no span on the chain from ``parent`` to the root is in ``names``."""
    return not any(spans[p]["name"] in names for p in _ancestors(spans, parent))


def layer_time(trace: dict, names) -> float:
    """Time inside the named functions, counting nested calls once."""
    spans = trace["spans"]
    total = sum((_duration(s) for s in spans if s["name"] in names and _outside(spans, s["parent"], names)), 0.0)
    total += sum(a["total"] for a in trace["aggregates"] if a["name"] in names and _outside(spans, a["parent"], names))
    return total


def self_time(trace: dict, names) -> float:
    """Duration of the named spans minus the time their child spans cover."""
    spans = trace["spans"]
    chosen = {i for i, s in enumerate(spans) if s["name"] in names}
    total = sum((_duration(spans[i]) for i in chosen), 0.0)
    total -= sum(_duration(s) for s in spans if s["parent"] in chosen)
    total -= sum(a["total"] for a in trace["aggregates"] if a["parent"] in chosen)
    return total


def _attr_sum(trace: dict, key: str) -> float:
    return sum(s["attrs"].get(key, 0) for s in trace["spans"])


def _count(trace: dict, names) -> int:
    spans = sum(1 for s in trace["spans"] if s["name"] in names)
    return spans + sum(a["count"] for a in trace["aggregates"] if a["name"] in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced call, by name (all but trace.overhead_s)."""
    exhaustive = {"cuts.cut_error_exhaustive", "cuts.regular_vs_clique_exhaustive"}
    samplers = {"graph.sample_regular_multigraph", "graph.sample_matching_partners"}
    spectral = [s for s in trace["spans"] if s["name"] == "spectral.spectral_error"]
    exhaustive_s = layer_time(trace, exhaustive)
    subsets = sum(
        s["attrs"].get("subsets", 0) for s in trace["spans"]
        if s["name"] in exhaustive and _outside(trace["spans"], s["parent"], exhaustive)
    )
    certify_s = layer_time(trace, {"nbwalk.certify_lower_bound"})
    pseudo_girth_s = layer_time(trace, {"nbwalk.pseudo_girth"})
    tail_s = layer_time(trace, {"martingale.empirical_tail"})
    harness = {s["name"] for s in trace["spans"] if s["name"].startswith("harness.run_")}
    return {
        "graph.make_clique_s": self_time(trace, {"graph.make_clique"}),
        "graph.bundles_built": _attr_sum(trace, "bundles"),
        "graph.clique_detect_s": layer_time(trace, {"graph.uniform_clique_weight"}),
        "graph.sample_s": layer_time(trace, samplers),
        "graph.sample_calls": _count(trace, samplers),
        "graph.transform_s": layer_time(
            trace, {"graph.scale_weights", "graph.collapse_multiedges", "graph.first_matchings_subgraph"}
        ),
        "graph.read_s": layer_time(trace, {"graph.read_edge_list"}),
        "cuts.exhaustive_s": exhaustive_s,
        "cuts.subsets_examined": subsets,
        "cuts.subsets_per_s": _ratio(subsets, exhaustive_s),
        "cuts.sampled_s": layer_time(trace, {"cuts.cut_error_sampled"}),
        "spectral.solve_s": layer_time(trace, {"spectral.spectral_error"}),
        "spectral.solves": len(spectral),
        "spectral.solves_clique": sum(1 for s in spectral if s["attrs"].get("method") == "clique"),
        "spectral.solves_whitening": sum(1 for s in spectral if s["attrs"].get("method") == "whitening"),
        "nbwalk.certify_s": certify_s,
        "nbwalk.pseudo_girth_s": pseudo_girth_s,
        "nbwalk.walk_s": certify_s - pseudo_girth_s,
        "nbwalk.walk_steps": _attr_sum(trace, "walk_steps"),
        "nbwalk.directed_edges": _attr_sum(trace, "directed_edges"),
        "nbwalk.mass_lost": _attr_sum(trace, "mass_lost"),
        "martingale.tail_s": tail_s,
        "martingale.reveal_s": layer_time(trace, {"martingale.simulate_reveal"}),
        "martingale.trials_per_s": _ratio(_attr_sum(trace, "trials"), tail_s),
        "harness.self_s": self_time(trace, harness),
        "cli.self_s": self_time(trace, {CLI_SPAN}),
    }


def median_metrics(per_call: list[dict]) -> dict:
    """Median of each metric over the traced calls of one run."""
    return {name: statistics.median(m[name] for m in per_call) for name in per_call[0]}
