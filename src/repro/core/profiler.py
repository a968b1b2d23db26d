"""Proxy-graph profiling for heterogeneous clusters (Fig. 7a).

The flow the paper describes:

1. generate synthetic proxy graphs (once);
2. combine each with every application into *profiling sets*;
3. group the cluster's machines by type and run each profiling set on one
   representative per group, in isolation ("each machine's graph
   computation power can be captured without communication interference");
4. convert the per-group runtimes into per-application CCRs (Eq. 1) and
   collect them into the pool.

Implementation note: the engine records machine-agnostic execution traces,
so each profiling set is *executed once* and then priced on every machine
type — the simulation equivalent of running the same binary on each
representative in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional

from repro.apps.registry import DEFAULT_APPS, make_app
from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineSpec
from repro.core.ccr import CCRPool, CCRTable, ccr_from_times
from repro.core.proxy import ProxySet
from repro.engine.report import simulate_execution
from repro.engine.runtime import GraphProcessingSystem
from repro.engine.trace import ExecutionTrace
from repro.errors import ProfilingError
from repro.graph.digraph import DiGraph
from repro.kernels.cache import (
    graph_fingerprint,
    machine_key,
    machine_time_cache,
    perf_key,
    profile_trace_cache,
)
from repro.obs import context as obs

__all__ = ["ProfileRecord", "ProfileReport", "ProxyProfiler"]


@dataclass(frozen=True)
class ProfileRecord:
    """Runtime of one (application, proxy graph, machine type) sample."""

    app: str
    proxy: str
    machine_type: str
    runtime_seconds: float


@dataclass(frozen=True)
class ProfileReport:
    """Everything one profiling pass produced."""

    pool: CCRPool
    records: List[ProfileRecord]

    def runtimes(self, app: str, machine_type: str) -> List[float]:
        return [
            r.runtime_seconds
            for r in self.records
            if r.app == app and r.machine_type == machine_type
        ]


class ProxyProfiler:
    """Profiles a heterogeneous cluster with synthetic proxy graphs.

    Parameters
    ----------
    proxies:
        The proxy set; a default paper-like set is created when omitted.
    apps:
        Application names to profile (default: the paper's four).

    Notes
    -----
    Profiling is a one-time offline process; re-profiling is needed only
    when new machine *types* join the cluster (Section III-B).  Callers
    that change cluster composition among existing types can reuse the
    pool unchanged.
    """

    def __init__(
        self,
        proxies: Optional[ProxySet] = None,
        apps: Iterable[str] = DEFAULT_APPS,
    ):
        self.proxies = proxies if proxies is not None else ProxySet()
        self.apps = tuple(apps)
        if not self.apps:
            raise ProfilingError("at least one application must be profiled")

    # ------------------------------------------------------------------ #

    def profile(self, cluster: Cluster) -> ProfileReport:
        """Profile all applications on the cluster's machine groups."""
        reps = cluster.representatives()
        with obs.span(
            "profile/run",
            apps=list(self.apps),
            machine_types=sorted(reps),
            proxies=list(self.proxies.names),
        ):
            graphs = self.proxies.graphs()
            records: List[ProfileRecord] = []
            pool = CCRPool()

            for app_name in self.apps:
                per_machine: Dict[str, float] = {name: 0.0 for name in reps}
                for proxy_name, graph in sorted(graphs.items()):
                    with obs.span(
                        "profile/set", app=app_name, proxy=proxy_name
                    ):
                        times = self._time_on_machines(
                            app_name, graph, cluster, reps
                        )
                    for mtype, t in sorted(times.items()):
                        per_machine[mtype] += t
                        records.append(
                            ProfileRecord(app_name, proxy_name, mtype, t)
                        )
                        if obs.is_enabled():
                            obs.counter_add("profile.sets", 1.0)
                            obs.event(
                                "profile/sample",
                                app=app_name,
                                proxy=proxy_name,
                                machine_type=mtype,
                                runtime_seconds=t,
                            )
                table = CCRTable(
                    app=app_name, ratios=ccr_from_times(per_machine)
                )
                pool.add(table)
                if obs.is_enabled():
                    for mtype, ratio in sorted(table.as_dict().items()):
                        obs.gauge_set(
                            "profile.ccr",
                            ratio,
                            app=app_name,
                            machine=mtype,
                        )
            return ProfileReport(pool=pool, records=records)

    def profile_graph(
        self, app_name: str, graph: DiGraph, cluster: Cluster
    ) -> CCRTable:
        """CCR measured directly on one graph (the 'oracle' reference).

        This is what profiling with the *real* input would yield — too
        expensive in production (the whole point of proxies) but the
        ground truth the accuracy evaluation (Fig. 8) compares against.
        """
        reps = cluster.representatives()
        with obs.span(
            "profile/oracle", app=app_name, machine_types=sorted(reps)
        ):
            times = self._time_on_machines(app_name, graph, cluster, reps)
        return CCRTable(app=app_name, ratios=ccr_from_times(times))

    # ------------------------------------------------------------------ #

    @staticmethod
    def _single_machine_trace(
        app_name: str, graph: DiGraph, cluster: Cluster
    ) -> ExecutionTrace:
        """One profiling-set execution, memoised by graph *content*.

        Single-machine traces are machine-agnostic and cluster-independent
        (pricing happens in :func:`simulate_execution`), so the cache key
        is just ``(app, graph fingerprint)``.
        """
        key = ("profile_trace", app_name, graph_fingerprint(graph))
        trace = profile_trace_cache.get(key)
        if trace is None:
            system = GraphProcessingSystem(cluster)
            trace = system.run_single_machine(make_app(app_name), graph)
            profile_trace_cache.put(key, trace)
        return trace

    @staticmethod
    def _time_on_machines(
        app_name: str,
        graph: DiGraph,
        cluster: Cluster,
        reps: Mapping[str, MachineSpec],
    ) -> Dict[str, float]:
        """Single-machine runtimes of one profiling set per machine type.

        Each runtime is memoised by ``(app, graph fingerprint, machine
        spec, perf params)``; the trace is executed (or fetched) only
        when some machine type misses.
        """
        fp = graph_fingerprint(graph)
        pkey = perf_key(cluster.perf)
        times: Dict[str, float] = {}
        trace = None
        for mtype, spec in sorted(reps.items()):
            tkey = ("profile_time", app_name, fp, machine_key(spec), pkey)
            cached = machine_time_cache.get(tkey)
            if cached is not None:
                times[mtype] = float(cached)
                continue
            if trace is None:
                trace = ProxyProfiler._single_machine_trace(
                    app_name, graph, cluster
                )
            solo = Cluster([spec], network=cluster.network, perf=cluster.perf)
            t = simulate_execution(trace, solo).runtime_seconds
            machine_time_cache.put(tkey, t)
            times[mtype] = t
        return times
