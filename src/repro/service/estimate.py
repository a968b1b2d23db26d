"""Cached runtime projection for admission control and deadline checks.

Every admission decision needs an a-priori answer to "how long would this
job run on this cluster?".  :func:`repro.core.cost.projected_runtime_seconds`
gives the CCR-priced answer, but it executes the application once on a
single machine to capture a trace — far too expensive to repeat for every
job in a stream where tenants resubmit the same (app, graph) pairs.

:func:`projected_seconds` memoises the projection in the process-level
:data:`repro.kernels.cache.estimate_cache`, keyed by
``(app, graph fingerprint, cluster key)``.  The key embeds the *full*
cluster identity (machine specs, network, perf parameters), so services
fronting different clusters sharing one process can never trade
estimates — a hit is always the number a miss would recompute.

On a miss the single-machine trace comes from
:meth:`~repro.core.profiler.ProxyProfiler._single_machine_trace`, so a
trace the profiler already ran is reused, not re-executed.  Crucially the
*value* is cache-state-independent, so service traces stay byte-identical
whether the cache was cold or warm.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.core.cost import projected_runtime_seconds
from repro.core.profiler import ProxyProfiler
from repro.graph.digraph import DiGraph
from repro.kernels.cache import cluster_key, estimate_cache, graph_fingerprint

__all__ = ["projected_seconds"]


def projected_seconds(cluster: Cluster, app: str, graph: DiGraph) -> float:
    """CCR-priced projected runtime, memoised across the job stream."""
    key = (app, graph_fingerprint(graph), cluster_key(cluster))
    hit = estimate_cache.get(key)
    if hit is not None:
        return float(hit)
    trace = ProxyProfiler._single_machine_trace(app, graph, cluster)
    seconds = projected_runtime_seconds(cluster, app, graph, trace=trace)
    estimate_cache.put(key, seconds)
    return seconds
