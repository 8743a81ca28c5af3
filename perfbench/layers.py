"""Per-layer tracing of ``run_pipeline`` from outside the program.

Every function that ``dirtda.pipeline`` imports from a layer module
(``dirtda.ingest``, ``dirtda.var``, ...) is replaced, for the duration of
one traced call, by a wrapper that records a span: name, layer, thread,
wall start/end, thread CPU start/end, and the span that was open on the
same thread when it started. Work counts are taken from the arguments and
results after the span has closed, so they are not timed. Spans stay in
memory and are written out after the run.

The functions in ``REQUIRED`` back a named metric; if one of them is no
longer importable from ``dirtda.pipeline`` the tracer refuses to start,
so a rename cannot silently zero a layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

LAYERS = ("ingest", "var", "pdc", "decomp", "homology", "summaries", "plots")

# (layer, function) pairs whose time or counts are reported by name.
REQUIRED = (
    ("ingest", "load_series"),
    ("var", "select_order"),
    ("var", "fit_var"),
    ("pdc", "pdc_band"),
    ("decomp", "decompose"),
    ("decomp", "asym_distance"),
    ("homology", "rips_filtration"),
    ("homology", "persistence"),
    ("summaries", "bottleneck"),
    ("summaries", "wasserstein"),
    ("summaries", "landscape"),
    ("summaries", "landscape_distance"),
    ("plots", "plot_diagram"),
    ("plots", "plot_landscape"),
)

# per-function wall-time metrics, "<layer>.<function>_s"
TIMED = (
    ("ingest", "load_series"),
    ("var", "fit_var"),
    ("pdc", "pdc_band"),
    ("homology", "rips_filtration"),
    ("homology", "persistence"),
    ("summaries", "bottleneck"),
    ("summaries", "wasserstein"),
    ("summaries", "landscape"),
    ("summaries", "landscape_distance"),
)

COUNTS = (
    "ingest.cells",
    "var.orders_fitted",
    "pdc.freqs",
    "homology.complex_size",
    "homology.pairs",
    "summaries.points",
    "plots.svg_bytes",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in print order."""
    names = [f"{layer}.{fn}_s" for layer, fn in TIMED]
    names += [f"{layer}.busy_s" for layer in LAYERS]
    names += [f"{layer}.cpu_s" for layer in LAYERS]
    names += list(COUNTS)
    names += [
        "pipeline.self_s",
        "pipeline.artifacts",
        "pipeline.json_bytes",
        "trace.run_s",
        "trace.overhead_s",
    ]
    return names


@dataclass
class Span:
    name: str
    layer: str
    thread: int
    start: float
    end: float
    cpu_start: float
    cpu_end: float
    parent: int | None

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


def complex_size(n_nodes: int, max_dim: int) -> int:
    """Simplices of the full Rips complex: sum of C(n, k) for k <= max_dim + 2."""
    return sum(math.comb(n_nodes, k) for k in range(1, max_dim + 3))


def _count(name: str, bound: inspect.BoundArguments, result: Any) -> tuple[str, int] | None:
    args = bound.arguments
    if name == "load_series":
        return "ingest.cells", int(result.samples.size)
    if name == "select_order":
        return "var.orders_fitted", int(args["k_max"])
    if name == "fit_var":
        return "var.orders_fitted", 1
    if name == "pdc_band":
        return "pdc.freqs", int(args["n_grid"])
    if name == "rips_filtration":
        return "homology.complex_size", complex_size(args["dm"].n_nodes, args["max_dim"])
    if name == "persistence":
        return "homology.pairs", len(result.pairs)
    if name in ("bottleneck", "wasserstein"):
        dim = args["dim"]
        return "summaries.points", len(args["a"].in_dim(dim)) + len(args["b"].in_dim(dim))
    if name in ("plot_diagram", "plot_landscape"):
        return "plots.svg_bytes", os.path.getsize(args["path"])
    return None


def layer_functions(pipeline_module) -> dict[str, tuple[str, Callable]]:
    """Name -> (layer, function) for every layer function the pipeline imports.

    Raises if a function in REQUIRED is missing, so a renamed or removed
    function fails the traced run instead of reading as zero time.
    """
    found: dict[str, tuple[str, Callable]] = {}
    for name, obj in vars(pipeline_module).items():
        module = getattr(obj, "__module__", "") or ""
        layer = module.rpartition(".")[2]
        if inspect.isfunction(obj) and module.startswith("dirtda.") and layer in LAYERS:
            found[name] = (layer, obj)
    missing = [
        f"{layer}.{name}"
        for layer, name in REQUIRED
        if name not in found or found[name][0] != layer
    ]
    if missing:
        raise RuntimeError(
            "dirtda.pipeline no longer imports these traced functions: "
            + ", ".join(missing)
            + "; update perfbench/layers.py"
        )
    return found


class Tracer:
    """Installs span-recording wrappers into a module for one traced call."""

    def __init__(self, pipeline_module) -> None:
        self._module = pipeline_module
        self._functions = layer_functions(pipeline_module)
        self._local = threading.local()
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTS}
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        """Indices of the spans open on the calling thread."""
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)  # reserved; filled when the span closes
            stack.append(index)
            cpu_start = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu_end = time.thread_time()
                stack.pop()
                self.spans[index] = Span(
                    name, layer, threading.get_ident(), start, end, cpu_start, cpu_end, parent
                )
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counted = _count(name, bound, result)
            if counted is not None:
                with self._lock:
                    self.counts[counted[0]] += counted[1]
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for name, (layer, fn) in self._functions.items():
            setattr(self._module, name, self._wrap(name, layer, fn))
        return self

    def __exit__(self, *exc) -> None:
        for name, (_, fn) in self._functions.items():
            setattr(self._module, name, fn)

    def write(self, path: str, origin: float) -> None:
        """One JSON line per span, times relative to origin."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                doc = {
                    "id": i,
                    "parent": s.parent,
                    "name": s.name,
                    "layer": s.layer,
                    "thread": s.thread,
                    "start_s": s.start - origin,
                    "end_s": s.end - origin,
                    "cpu_s": s.cpu,
                }
                handle.write(json.dumps(doc) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(tracer: Tracer, run_wall: float) -> dict[str, float]:
    """Per-function time, per-layer self time (wall and thread CPU), counts.

    A span's self time is its duration minus that of its direct children
    (spans opened on the same thread while it was open). Layer times are
    sums over spans and threads, so under the pipeline's thread pool they
    include time spent waiting for the interpreter lock; the ``cpu_s``
    figures do not. pipeline.self_s is the traced call's wall time not
    covered by any span on any thread: orchestration, JSON writes and
    pool waits.
    """
    spans = tracer.spans
    child_wall = [0.0] * len(spans)
    child_cpu = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_wall[s.parent] += s.wall
            child_cpu[s.parent] += s.cpu
    out: dict[str, float] = {}
    for layer, fn in TIMED:
        out[f"{layer}.{fn}_s"] = sum(s.wall for s in spans if s.name == fn)
    for layer in LAYERS:
        idx = [i for i, s in enumerate(spans) if s.layer == layer]
        out[f"{layer}.busy_s"] = sum(spans[i].wall - child_wall[i] for i in idx)
        out[f"{layer}.cpu_s"] = sum(spans[i].cpu - child_cpu[i] for i in idx)
    out.update({name: float(v) for name, v in tracer.counts.items()})
    covered = _union_length([(s.start, s.end) for s in spans if s.parent is None])
    out["pipeline.self_s"] = run_wall - covered
    return out


def select_order_seconds(tracer: Tracer) -> float:
    return sum(s.wall for s in tracer.spans if s.name == "select_order")
