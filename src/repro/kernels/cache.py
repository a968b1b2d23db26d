"""Content-keyed caches for the kernel pipeline.

Six process-level LRU caches, plus a price memo on each cached trace,
amortise the repeated work the experiment drivers and the job service
generate:

* :data:`profile_trace_cache` — single-machine profiling traces keyed by
  ``(app, graph fingerprint)``.  Traces are machine-agnostic (pricing
  happens later), so one execution serves every machine type, every
  cluster composition and every ``experiments/fig*`` driver that profiles
  the same (app, graph) pair.
* :data:`machine_time_cache` — priced profiling runtimes keyed by
  ``(app, graph fingerprint, machine spec, performance-model params)``:
  the paper's proxy-profile unit of work (one profiling set on one
  representative machine).
* :data:`assignment_cache` — partition assignments keyed by
  ``(algorithm, config, graph fingerprint, machines, weights)``.
* :data:`dgraph_cache` — materialised :class:`DistributedGraph` layouts
  keyed by ``(graph fingerprint, assignment digest, machines)``.  Master
  selection uses one fixed hash seed, so the layout (edge views,
  presence, masters) is a pure function of that key and the engines
  never mutate it: runs may share one instance.
* :data:`trace_cache` — execution traces keyed by ``(app configuration,
  graph fingerprint, assignment digest, machines)``, filled by
  :func:`repro.engine.runtime.execute_partition`.  The app configuration
  is its class, name, scalar instance state, ``max_supersteps`` and
  ``strict`` (:func:`app_key`); an app holding non-scalar state runs
  uncached.  Pricing never mutates a trace, so every run of the same
  (app, partition) pair may share one.  Each cached trace also carries a small price memo
  (:func:`repro.engine.report.enable_price_memo`): priced results keyed
  by ``cluster_key(cluster)``, so
  :func:`~repro.engine.report.simulate_execution` walks each distinct
  (trace, cluster) once.  The memo lives on the trace object, so it is
  evicted with it and is not a namespace of its own.
* :data:`estimate_cache` — the service's projected runtimes keyed by
  ``(app, graph fingerprint, cluster key)``.

Keys are *content* keys — :func:`graph_fingerprint` hashes the edge
arrays — so independently loaded copies of the same dataset deduplicate
(the latent fig2/fig8a/fig8b duplicate-profiling bug this subsystem
fixes).

One rule keeps the caches semantically invisible: cached values are
deterministic functions of their keys, so a hit returns exactly the bytes
a miss would recompute (proven by the differential equivalence tests).
The caches are consulted whether or not an observer is installed, so an
observed run executes the same code as an unobserved one; work served
from a cache is simply not re-executed (see DESIGN.md §11).

Since the summary store landed, each cache is a
:class:`~repro.store.backend.LayeredCache`: the in-process LRU is L1,
and :func:`attach_store` optionally backs the persistable namespaces
with a :class:`~repro.store.store.SummaryStore` so warm state survives
restarts and L1 evictions.  Detached (the default), behaviour is
identical to the original LRUs.  ``dgraph_cache`` and ``trace_cache``
are deliberately never persisted — materialized layouts are cheap to
rebuild and expensive to serialize, and traces stay in-process like the
layouts they are keyed by.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from operator import attrgetter
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineSpec
from repro.cluster.perfmodel import PerformanceModel
from repro.graph.digraph import DiGraph
from repro.store.backend import LayeredCache, LRUCache
from repro.store.codecs import CODECS

__all__ = [
    "LRUCache",
    "LayeredCache",
    "app_key",
    "assignment_cache",
    "attach_store",
    "attached_store",
    "cache_stats",
    "clear_all_caches",
    "cluster_key",
    "detach_store",
    "dgraph_cache",
    "estimate_cache",
    "graph_fingerprint",
    "graph_memo",
    "machine_key",
    "machine_time_cache",
    "perf_key",
    "profile_trace_cache",
    "trace_cache",
]


#: (app name, graph fingerprint) -> machine-agnostic single-machine trace.
profile_trace_cache = LayeredCache(
    maxsize=64, namespace="profile_trace", codec=CODECS["profile_trace"]
)

#: (app, fingerprint, machine spec, perf params) -> runtime seconds.
machine_time_cache = LayeredCache(
    maxsize=4096, namespace="machine_time", codec=CODECS["machine_time"]
)

#: (algorithm, config, fingerprint, machines, weights) -> int32 assignment.
assignment_cache = LayeredCache(
    maxsize=32, namespace="assignment", codec=CODECS["assignment"]
)

#: (fingerprint, assignment digest, machines) -> DistributedGraph built
#: with the default master seed.  In-process only: never backed by the
#: store.
dgraph_cache = LayeredCache(maxsize=32)

#: (app configuration, fingerprint, assignment digest, machines) ->
#: ExecutionTrace.  In-process only: never backed by the store.
trace_cache = LayeredCache(maxsize=64)

#: (app, graph fingerprint, cluster key) -> projected runtime seconds.
#: Shared across every job the service runs in one process; the key
#: embeds the *full* cluster identity (machine specs, network, perf
#: params) so two services fronting different clusters can never trade
#: estimates (see :func:`cluster_key`).
estimate_cache = LayeredCache(
    maxsize=1024, namespace="estimate", codec=CODECS["estimate"]
)

_ALL_CACHES: Tuple[Tuple[str, LayeredCache], ...] = (
    ("profile_trace", profile_trace_cache),
    ("machine_time", machine_time_cache),
    ("assignment", assignment_cache),
    ("dgraph", dgraph_cache),
    ("estimate", estimate_cache),
    ("trace", trace_cache),
)


def clear_all_caches() -> None:
    """Empty every kernel cache's in-process layer (test isolation;
    benchmark cold starts).  An attached store is never cleared."""
    for _, cache in _ALL_CACHES:
        cache.clear()


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size counters per cache, in a fixed order."""
    return {name: cache.stats() for name, cache in _ALL_CACHES}


def attach_store(store: Any) -> None:
    """Back every persistable kernel cache with one summary store.

    The store is shared process-wide — every service, every federation
    shard, every experiment driver in the process reads and writes the
    same materialized rows.  Codec-less caches (``dgraph``, ``trace``)
    ignore it.
    """
    for _, cache in _ALL_CACHES:
        cache.attach(store)


def detach_store() -> None:
    """Detach the summary store from every kernel cache (L1s survive)."""
    for _, cache in _ALL_CACHES:
        cache.detach()


def attached_store() -> Optional[Any]:
    """The store currently backing the kernel caches, or ``None``."""
    for _, cache in _ALL_CACHES:
        if cache.namespace is not None and cache.attached:
            return cache._store
    return None


# ---------------------------------------------------------------------- #
# Content keys
# ---------------------------------------------------------------------- #


def graph_fingerprint(graph: DiGraph) -> str:
    """SHA-256 over a graph's vertex count and canonical edge arrays.

    Memoised per instance (graphs are immutable), so repeated lookups for
    the same object are O(1) while independently loaded copies of the same
    dataset still collide on content.
    """
    cached = graph.__dict__.get("_kernels_fingerprint")
    if cached is not None:
        return str(cached)
    digest = hashlib.sha256()
    digest.update(str(graph.num_vertices).encode("ascii"))
    src, dst = graph.edges()
    digest.update(src.tobytes())
    digest.update(dst.tobytes())
    fingerprint = digest.hexdigest()
    graph.__dict__["_kernels_fingerprint"] = fingerprint
    return fingerprint


def graph_memo(graph: DiGraph) -> Dict[Tuple[Any, ...], Any]:
    """Per-graph-instance memo table (lives in the graph's ``__dict__``).

    Holds partition-independent derived results (undirected skeleton,
    colouring waves, triangle totals).  The table dies with the graph
    object, so it cannot outlive its key.
    """
    memo = graph.__dict__.get("_kernels_memo")
    if memo is None:
        memo = {}
        graph.__dict__["_kernels_memo"] = memo
    return memo  # type: ignore[no-any-return]


#: Instance-state types an application may hold and still be keyed.
_SCALARS = (bool, int, float, str, type(None))


def _scalar_key(value: Any) -> Tuple[str, str]:
    # Type name plus repr: keeps True apart from 1 and -0.0 from 0.0,
    # which compare (and hash) equal as raw tuple entries.
    return (type(value).__name__, repr(value))


def app_key(app: Any) -> Optional[Tuple[Any, ...]]:
    """Content key of an application's configuration, or ``None``.

    Covers the class, the name, every instance attribute and the two
    class-level knobs the engine reads (``max_supersteps``, ``strict``).
    An app holding anything but plain scalars (arrays, RNGs, callables)
    cannot be keyed and runs uncached.  The ``trace`` cache keys on it,
    and so does the per-graph frontier log of ``min`` programs
    (:func:`repro.kernels.engine.frontier_log`).
    """
    state = vars(app)
    if not all(type(value) in _SCALARS for value in state.values()):
        return None
    cls = type(app)
    return (
        cls.__module__,
        cls.__qualname__,
        app.name,
        tuple((name, _scalar_key(state[name])) for name in sorted(state)),
        _scalar_key(getattr(app, "max_supersteps", None)),
        _scalar_key(getattr(app, "strict", None)),
    )


#: Reads every MachineSpec field, in declaration order, into one tuple.
_machine_fields: Callable[[MachineSpec], Tuple[Any, ...]] = attrgetter(
    *(f.name for f in fields(MachineSpec))
)


def machine_key(spec: MachineSpec) -> Tuple[Any, ...]:
    """Hashable identity of a machine spec (all fields, by value).

    Equal to ``dataclasses.astuple(spec)`` — the form every estimate and
    store key was written with — without its recursive deep copy.
    """
    return _machine_fields(spec)


def perf_key(perf: PerformanceModel) -> Tuple[float, float, float]:
    """Hashable identity of a performance model's parameters."""
    return (
        float(perf.model_scale),
        float(perf.efficiency_decay),
        float(perf.min_miss_rate),
    )


def cluster_key(cluster: Cluster) -> Tuple[Any, ...]:
    """Hashable identity of a full cluster configuration.

    Covers the slot-ordered machine specs, the network model and the
    performance-model parameters — everything that can change a priced
    result.  Cache entries fingerprinted with this key are safe to share
    process-wide: two different cluster specs can never collide.
    """
    return (
        tuple(machine_key(m) for m in cluster.machines),
        (float(cluster.network.bandwidth_gbs), float(cluster.network.latency_s)),
        perf_key(cluster.perf),
    )
