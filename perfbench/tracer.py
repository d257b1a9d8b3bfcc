"""In-memory spans around the calls one layer of `begin` makes into another.

The tracer replaces module attributes such as `begin.engine.schur_complement`
with a wrapper that records a span (name, start, end, parent span, op id) and
puts the original back on `uninstall`. Nothing in `begin` itself changes: a
call is traced when its caller looks the function up through the wrapped
attribute. Spans live in flat arrays until the run ends, so recording one
allocates no object the garbage collector has to track.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from array import array
from typing import Callable, Dict, List, Optional

from stats import self_times

Extractor = Optional[Callable[[tuple, object], object]]


def _sigma_dim(args: tuple, result: object) -> int:
    return args[0].sigma.shape[0]


def _edge_count(args: tuple, result: object) -> int:
    return len(result.edges)


def _text_len(args: tuple, result: object) -> int:
    return len(result)


def _first_arg(args: tuple, result: object) -> str:
    return args[0]


def _second_arg(args: tuple, result: object) -> str:
    return args[1]


# (module, attribute, span name, value recorded on the span)
# Each consumer module binds its own reference at import, so a function used
# by several layers is wrapped once per module that calls it.
SITES = (
    ("engine", "test_ci", "engine.test_ci", None),
    ("cli", "test_ci", "engine.test_ci", None),
    ("quantize", "test_ci", "engine.test_ci", None),
    ("engine", "assemble_sigma", "engine.assemble_sigma", None),
    ("cli", "assemble_sigma", "engine.assemble_sigma", None),
    ("engine", "schur_complement", "schur.schur_complement", _sigma_dim),
    ("cli", "schur_complement", "schur.schur_complement", _sigma_dim),
    ("engine", "sb_inverse", "schur.sb_inverse", None),
    ("cli", "sb_inverse", "schur.sb_inverse", None),
    ("engine", "build_graph", "graph.build_graph", _edge_count),
    ("cli", "build_graph", "graph.build_graph", _edge_count),
    ("engine", "separates", "graph.separates", None),
    ("cli", "export_graph", "graph.export_graph", _text_len),
    ("engine", "build_index_sets", "bitgroup.build_index_sets", None),
    ("engine", "span_generate", "bitgroup.span_generate", None),
    ("bitgroup", "span_generate", "bitgroup.span_generate", None),
    ("cli", "partition_from_json", "bitgroup.partition_from_json", None),
    ("engine", "interaction_cov", "distribution.interaction_cov", None),
    ("cli", "read_pmf_csv", "distribution.read_pmf_csv", _first_arg),
    ("cli", "read_samples_csv", "distribution.read_samples_csv", _first_arg),
    ("cli", "write_pmf_csv", "distribution.write_pmf_csv", _second_arg),
    ("cli", "pmf_from_samples", "distribution.pmf_from_samples", None),
    ("cli", "make_ci_pmf", "distribution.generate", None),
    ("cli", "make_generic_pmf", "distribution.generate", None),
    ("distribution", "make_ci_pmf", "distribution.generate", None),
    ("distribution", "make_generic_pmf", "distribution.generate", None),
    ("distribution", "draw_samples", "distribution.generate", None),
    ("distribution", "fwht", "hadamard.fwht", None),
    ("cli", "fwht", "hadamard.fwht", None),
    ("cli", "quantized_ci_scan", "quantize.quantized_ci_scan", None),
    ("quantize", "quantized_pmf", "quantize.quantized_pmf", None),
    ("cli", "delta_curve", "quantize.delta_curve", None),
    ("cli", "source_from_json", "quantize.source_from_json", None),
    ("cli", "main", "cli.main", None),
    ("oracle", "oracle_ci", "oracle.oracle_ci", None),
)

# span names whose recorded value is a file path, reported as bytes
_PATH_SPANS = (
    "distribution.read_pmf_csv",
    "distribution.read_samples_csv",
    "distribution.write_pmf_csv",
)

class Tracer:
    """Flat span store; parent and op id refer to positions in it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.values: List[object] = []
        self.op = -1
        self._stack = [-1]
        self._undo: List[tuple] = []

    def wrap(self, name: str, fn: Callable, value: Extractor = None) -> Callable:
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, values, stack = self.parents, self.ops, self.values, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ops.append(self.op)
            values.append(None)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if value is not None:
                values[idx] = value(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def root(self, name: str, op: int, fn: Callable, *args):
        """Run fn(*args) as the root span of one op, verification or set-up."""
        self.op = op
        return self.wrap(name, fn)(*args)

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap every site whose module and attribute exist."""
        for mod_name, attr, name, value in SITES:
            mod = modules.get(mod_name)
            if mod is None or not hasattr(mod, attr):
                continue
            original = getattr(mod, attr)
            self._undo.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, value))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)

    def write(self, path: str) -> None:
        """Spans as JSON lines, one per span, in recording order."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                value = self.values[i]
                fh.write(json.dumps({
                    "id": i, "name": name, "start_ns": self.starts[i],
                    "end_ns": self.ends[i], "parent": self.parents[i],
                    "op": self.ops[i],
                    **({} if value is None else {"value": value}),
                }, separators=(",", ":")) + "\n")


def span_cost_ns(rounds: int = 20000) -> float:
    """Measured cost of one traced call over a plain one, in ns."""
    tracer = Tracer()
    noop = lambda: None  # noqa: E731
    traced = tracer.wrap("calibrate", noop)
    clock = time.perf_counter_ns
    costs = []
    for _ in range(5):
        t0 = clock()
        for _ in range(rounds):
            noop()
        t1 = clock()
        for _ in range(rounds):
            traced()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / rounds)
        del tracer.names[:], tracer.values[:]
        for arr in (tracer.starts, tracer.ends, tracer.parents, tracer.ops):
            del arr[:]
    return statistics.median(costs)


def layer_summary(
    tracer: Tracer, span_cost: float, per_op_counts: Dict[str, float]
) -> Dict[str, object]:
    """Per-layer calls, total and self time per op, plus the self-time check.

    Op-scope spans (under an "op" root) give the per-op layer figures;
    "verify" roots give the oracle's, "setup" roots the generators'.
    per_op_counts holds per-op counters measured outside the spans.
    """
    n = len(tracer.names)
    selfs = self_times(list(zip(tracer.starts, tracer.ends, tracer.parents)))
    root = [0] * n
    for i in range(n):
        parent = tracer.parents[i]
        root[i] = i if parent < 0 else root[parent]
    agg: Dict[tuple, List[float]] = {}
    op_roots = [i for i in range(n) if tracer.parents[i] < 0 and tracer.names[i] == "op"]
    spans_in: Dict[int, int] = {}
    edges_by_op: Dict[int, int] = {}
    for i in range(n):
        scope = tracer.names[root[i]]
        if root[i] == i:
            continue
        spans_in[root[i]] = spans_in.get(root[i], 0) + 1
        value = tracer.values[i]
        if tracer.names[i] in _PATH_SPANS and isinstance(value, str):
            value = os.path.getsize(value) if os.path.exists(value) else 0
        if scope == "op" and tracer.names[i] == "graph.build_graph":
            edges_by_op[tracer.ops[i]] = edges_by_op.get(tracer.ops[i], 0) + value
        entry = agg.setdefault((scope, tracer.names[i]), [0, 0, 0, 0, 0])
        entry[0] += 1
        entry[1] += tracer.ends[i] - tracer.starts[i]
        entry[2] += selfs[i]
        if isinstance(value, int):
            entry[3] += value
            entry[4] += value ** 3

    n_ops = len(op_roots)
    op_ns = sum(tracer.ends[i] - tracer.starts[i] for i in op_roots)
    metrics: Dict[str, float] = {}
    layers: Dict[str, Dict[str, float]] = {}
    shares: Dict[str, float] = {}
    for (scope, name), (calls, total, self_ns, vsum, vcube) in sorted(agg.items()):
        if scope == "op":
            layers[name] = {
                "calls": calls / n_ops,
                "total_ms": total / 1e6 / n_ops,
                "self_ms": self_ns / 1e6 / n_ops,
            }
            module = name.split(".")[0]
            shares[module] = shares.get(module, 0.0) + self_ns / op_ns
            metrics[f"{name}.self_ms"] = self_ns / 1e6 / n_ops
            metrics[f"{name}.calls"] = calls / n_ops
        elif scope == "verify" and name == "oracle.oracle_ci":
            metrics["oracle.oracle_ci.self_ms"] = self_ns / 1e6 / n_ops
            metrics["oracle.checks"] = calls / n_ops
        elif scope == "setup" and name == "distribution.generate":
            metrics["distribution.generate.setup_ms"] = self_ns / 1e6
        if scope != "op":
            continue
        if name == "schur.schur_complement":
            metrics["schur.sigma_dim"] = vsum / calls
            metrics["schur.dense_cubic_work"] = vcube / n_ops
        elif name == "graph.build_graph":
            metrics["graph.edges"] = vsum / n_ops
        elif name == "graph.export_graph":
            metrics["graph.export_bytes"] = vsum / n_ops
        elif name in _PATH_SPANS:
            metrics["distribution.csv_bytes"] = (
                metrics.get("distribution.csv_bytes", 0.0) + vsum / n_ops
            )
    for module, share in shares.items():
        metrics[f"{module}.share"] = share
    metrics.update(per_op_counts)

    # An op's wall time is its layers' self times plus the root's own time,
    # which holds no library code, only wrapper entry and exit. Each op may
    # leave unattributed the larger of its spans' calibrated cost and 1% of
    # its wall time (returning from a call that freed much memory takes tens
    # of microseconds); the check holds when the total stays within budget.
    unattributed = [selfs[i] for i in op_roots]
    budget = [
        max(spans_in.get(i, 0) * span_cost, 0.01 * (tracer.ends[i] - tracer.starts[i]))
        for i in op_roots
    ]
    metrics["trace.unattributed_ms"] = sum(unattributed) / 1e6 / n_ops
    metrics["trace.spans_per_op"] = sum(spans_in.get(i, 0) for i in op_roots) / n_ops
    return {
        "metrics": metrics,
        "layers": layers,
        "ops": n_ops,
        "op_ms": op_ns / 1e6 / n_ops,
        "edges_by_op": edges_by_op,
        "self_time_check": {
            "ok": sum(unattributed) <= sum(budget),
            "span_cost_ns": span_cost,
            "unattributed_ms": sum(unattributed) / 1e6,
            "budget_ms": sum(budget) / 1e6,
            "ops_over_own_budget": sum(1 for u, b in zip(unattributed, budget) if u > b),
        },
    }
