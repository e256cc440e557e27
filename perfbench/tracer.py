"""Span tracer that wraps spectralt's public functions from outside the package.

`install` replaces each function named in STAGES with a wrapper that records
a span (name, start, end, parent span, op id) in memory.  Names that a module
imported by value (such as `zuk_certificate` in `spectralt.cli`) are rebound
in every spectralt module that holds them, and MultiGraph / Presentation
methods are wrapped on their classes.  Small helpers called per word or per
edge are not wrapped: their time is self time of the wrapped caller.

A stage's time is the sum of the self times of its spans, where a span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

OP = "op"

# wrapped name (module:qualname) -> the per-layer metric its self time adds to
STAGES: dict[str, str] = {
    "cli:main": "cli.self_s",
    "words:enumerate_reduced": "words.enumerate_s",
    "words:enumerate_cyclically_reduced": "words.enumerate_s",
    "randmodels:sample_gamma_p": "randmodels.sample_s",
    "randmodels:sample_gamma_strict": "randmodels.sample_s",
    "randmodels:sample_gamma_lax": "randmodels.sample_s",
    "randmodels:sample_gnp": "randmodels.sample_s",
    "randmodels:sample_bipartite_gnp": "randmodels.sample_s",
    "randmodels:sample_red": "randmodels.sample_s",
    "randmodels:sample_bred": "randmodels.sample_s",
    "delta:Presentation.parse": "delta.parse_s",
    "delta:build_delta_k": "delta.build_s",
    "delta:build_delta3": "delta.build_s",
    "delta:sigma_decomposition": "delta.sigma_s",
    "delta:double_edge_audit": "delta.audit_s",
    "multigraph:MultiGraph.__init__": "multigraph.construct_s",
    "multigraph:MultiGraph.degree": "multigraph.walk_s",
    "multigraph:MultiGraph.degrees": "multigraph.walk_s",
    "multigraph:MultiGraph.degree_profile": "multigraph.walk_s",
    "multigraph:MultiGraph.components": "multigraph.walk_s",
    "multigraph:MultiGraph.adjacency_matrix": "multigraph.walk_s",
    "multigraph:MultiGraph.collapse_multi_edges": "multigraph.walk_s",
    "multigraph:union": "multigraph.walk_s",
    "spectra:normalized_laplacian": "spectra.laplacian_s",
    "spectra:spectrum": "spectra.eigensolve_s",
    "spectra:lambda1": "spectra.lambda1_s",
    "spectra:spectral_report": "spectra.lambda1_s",
    "regularity:red_class_layers": "regularity.layers_s",
    "regularity:extract_regular_subgraph": "regularity.extract_s",
    "regularity:extract_red_regular_union": "regularity.extract_s",
    "regularity:ore_ryser_feasible": "regularity.extract_s",
    "certify:zuk_certificate": "certify.self_s",
    "certify:certify_via_decomposition": "certify.self_s",
    "certify:union_bound": "certify.self_s",
    "certify:union_bound_empirical_check": "certify.union_check_s",
}

# the layer each stage metric belongs to is the prefix before the dot
COUNTS = (
    "words.words_enumerated",
    "randmodels.relators_drawn",
    "delta.vertices",
    "delta.edges",
    "multigraph.graphs_built",
    "spectra.eigensolves",
    "spectra.order_max",
    "spectra.eig_flops_computed",
    "spectra.matrix_bytes_computed",
    "regularity.extract_calls",
    "regularity.flow_arcs",
    "regularity.factor_yield",
)

TRACE_METRICS = ("trace.op_s", "trace.ops_per_s", "trace.spans_per_op")

PER_LAYER: tuple[str, ...] = (
    tuple(dict.fromkeys(STAGES.values())) + COUNTS + TRACE_METRICS
)

UNITS = {name: ("s" if name.endswith("_s") else "count") for name in PER_LAYER}
UNITS.update({
    "spectra.eig_flops_computed": "flop",
    "spectra.matrix_bytes_computed": "B",
    "regularity.factor_yield": "frac",
    "trace.ops_per_s": "1/s",
})


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for none
    op: int


class Tracer:
    """In-memory spans and per-op counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = Span(name, start, end, parent, self.op)
            if count is not None:
                count(self.counts[self.op], args, result)
            return result

        return traced

    def run_op(self, op: int, fn: Callable, *args):
        """Call fn(*args) as op number `op`, inside a root span named OP."""
        self.op = op
        return self.wrap(OP, fn)(*args)


def _count_enumerated(c, args, result):
    n, l = args[0], args[1]
    c["words.words_enumerated"] += 2 * n * (2 * n - 1) ** (l - 1)


def _count_relators(c, args, result):
    c["randmodels.relators_drawn"] += len(result.relators)


def _count_delta(c, args, result):
    c["delta.vertices"] += result.num_vertices()
    c["delta.edges"] += result.num_edges()


def _count_graph(c, args, result):
    c["multigraph.graphs_built"] += 1


def _count_eigensolve(c, args, result):
    m = len(args[0])
    c["spectra.eigensolves"] += 1
    c["spectra.order_max"] = max(c["spectra.order_max"], m)
    c["spectra.eig_flops_computed"] += 4 / 3 * m**3
    c["spectra.matrix_bytes_computed"] += 8 * m**2


def _count_extract(c, args, result):
    g, d1 = args[0], args[1]
    c["regularity.extract_calls"] += 1
    if d1 > 0:
        c["regularity.flow_arcs"] += g.num_vertices() + len(g.edges)
    c["regularity.factors_found"] += result is not None


HOOKS = {
    "words:enumerate_reduced": _count_enumerated,
    "words:enumerate_cyclically_reduced": _count_enumerated,
    "randmodels:sample_gamma_p": _count_relators,
    "randmodels:sample_gamma_strict": _count_relators,
    "randmodels:sample_gamma_lax": _count_relators,
    "delta:build_delta_k": _count_delta,
    "multigraph:MultiGraph.__init__": _count_graph,
    "spectra:spectrum": _count_eigensolve,
    "regularity:extract_regular_subgraph": _count_extract,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every STAGES target that exists; return the names not found."""
    missing = []
    for target in STAGES:
        modname, qualname = target.split(":")
        module = importlib.import_module(f"spectralt.{modname}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = vars(owner).get(attr)
        if raw is None:
            missing.append(target)
            continue
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        traced = tracer.wrap(target, fn, HOOKS.get(target))
        if owner_name:
            setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
            continue
        for name, mod in list(sys.modules.items()):
            if name == "spectralt" or name.startswith("spectralt."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
    return missing


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def op_metrics(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per-op stage self times, counts and traced op duration."""
    spans = tracer.spans  # complete once no op is running; parents index this list
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(PER_LAYER, 0.0))
    for s, own in zip(spans, self_times(spans)):
        row = per_op[s.op]
        row["trace.spans_per_op"] += 1
        if s.name == OP:
            row["trace.op_s"] = s.end - s.start
        else:
            row[STAGES[s.name]] += own
    for op, counts in tracer.counts.items():
        row = per_op[op]
        for key in COUNTS:
            row[key] = counts.get(key, 0.0)
        calls = counts.get("regularity.extract_calls", 0.0)
        found = counts.get("regularity.factors_found", 0.0)
        row["regularity.factor_yield"] = found / calls if calls else 0.0
    return dict(per_op)


def summarize(per_op: dict[int, dict[str, float]], ops: list[int]) -> dict[str, float]:
    """Median over `ops` of every per-layer metric."""
    rows = [per_op.get(op, dict.fromkeys(PER_LAYER, 0.0)) for op in ops]
    return {name: statistics.median(r[name] for r in rows) for name in PER_LAYER}
