"""Per-layer spans recorded from outside the program.

A traced rep wraps the public methods in :data:`BOUNDARIES` for the
length of its timed window, records one span per call in memory, and
restores every original attribute afterwards.  Nothing in ``src/``
changes and no ``repro.obs`` observer is installed: an observed run
bypasses every kernel cache and would measure a different program.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

#: (module, class, method, layer).  The class must define the method
#: itself: subclasses that inherit it are covered, overrides are listed.
BOUNDARIES = (
    ("repro.core.proxy", "ProxySet", "graphs", "proxy"),
    ("repro.core.profiler", "ProxyProfiler", "profile", "profile"),
    ("repro.core.profiler", "ProxyProfiler", "profile_graph", "profile"),
    ("repro.partition.base", "Partitioner", "partition", "partition"),
    ("repro.engine.distributed_graph", "DistributedGraph", "__init__", "layout"),
    ("repro.engine.vertex_program", "SyncVertexProgram", "execute", "engine"),
    ("repro.apps.coloring", "GraphColoring", "execute", "engine"),
    ("repro.apps.triangle_count", "TriangleCount", "execute", "engine"),
    ("repro.federation.federation", "FederationService", "run_workload", "service"),
    ("repro.streaming.incremental", "IncrementalPartitioner", "start", "repair"),
    ("repro.streaming.incremental", "IncrementalPartitioner", "apply", "repair"),
    ("repro.streaming.runner", "EpochOutcome", "to_record", "checkpoint"),
    ("repro.streaming.recovery", "StreamCheckpoint", "canonical_json", "checkpoint"),
    ("repro.streaming.recovery", "CheckpointCustody", "record", "checkpoint"),
    ("repro.store.store", "SummaryStore", "put", "store"),
)

#: Layer -> (name of its call count or None, name of its self time).
LAYER_METRICS = {
    "proxy": ("proxy.calls", "proxy.self_s"),
    "profile": ("profile.calls", "profile.self_s"),
    "partition": ("partition.calls", "partition.self_s"),
    "layout": ("layout.calls", "layout.self_s"),
    "engine": ("engine.calls", "engine.self_s"),
    "pricing": ("pricing.calls", "pricing.self_s"),
    "service": (None, "service.self_s"),
    "repair": ("repair.calls", "repair.self_s"),
    "checkpoint": ("checkpoint.calls", "checkpoint.self_s"),
    "store": ("store.puts", "store.put_s"),
}

Counting = Callable[[Counter, tuple, Any], None]


def _count_supersteps(counts: Counter, args: tuple, trace: Any) -> None:
    counts["engine.supersteps"] += trace.num_supersteps


def _count_bytes(counts: Counter, args: tuple, result: Any) -> None:
    # SummaryStore.put(self, namespace, key_text, payload)
    counts["store.bytes_written"] += len(args[3])


_COUNTERS: Dict[str, Counting] = {
    "engine": _count_supersteps,
    "store": _count_bytes,
}


class Tracer:
    """Records ``[name, start, end, parent]`` spans of wrapped callables.

    ``parent`` is the index of the enclosing span, or ``None`` for a
    top-level one.  Spans of one process nest strictly (the harness runs
    no extra threads), so a stack is enough to find the parent.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def wrap(
        self, owner: Any, attr: str, name: str, count: Optional[Counting] = None
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`restore`."""
        original = vars(owner)[attr]
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.restore()


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of ``repro`` (imports what is missing).

    ``simulate_execution`` is a function that modules import by name, so
    pricing is wrapped in every loaded ``repro`` module that holds it.
    """
    for module, cls, method, layer in BOUNDARIES:
        owner = getattr(importlib.import_module(module), cls)
        tracer.wrap(owner, method, layer, _COUNTERS.get(layer))
    report = importlib.import_module("repro.engine.report")
    price = report.simulate_execution
    for name, module in sorted(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and vars(module).get(
            "simulate_execution"
        ) is price:
            tracer.wrap(module, "simulate_execution", "pricing")


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _p) in enumerate(spans)]


def _under(spans: List[list], index: int, layer: str) -> bool:
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == layer:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: List[list], counts: Counter, window_s: float) -> Dict[str, float]:
    """Per-layer calls and self times of one traced window.

    ``profile.engine_s`` and ``profile.layout_s`` are the engine and
    layout self time spent inside profiling; ``other.self_s`` is the
    window time outside every top-level span.
    """
    metrics: Dict[str, float] = {}
    for calls, self_s in LAYER_METRICS.values():
        if calls is not None:
            metrics[calls] = 0
        metrics[self_s] = 0.0
    metrics.update({"profile.engine_s": 0.0, "profile.layout_s": 0.0})
    metrics.update({"engine.supersteps": 0, "store.bytes_written": 0})
    metrics.update(counts)
    top = 0.0
    for index, (own, span) in enumerate(zip(self_times(spans), spans)):
        layer, start, end, parent = span
        calls, self_s = LAYER_METRICS[layer]
        if calls is not None:
            metrics[calls] += 1
        metrics[self_s] += own
        if layer in ("engine", "layout") and _under(spans, index, "profile"):
            metrics[f"profile.{layer}_s"] += own
        if parent is None:
            top += end - start
    metrics["other.self_s"] = window_s - top
    return metrics
