"""Cost-efficiency projection (Section V-C, Fig. 11).

Synthetic-graph profiling quantifies each machine's *cost per task*: the
product of a task's runtime and the machine's hourly rate.  Plotting cost
against speedup (both relative to a baseline machine) gives the Pareto
space of Fig. 11 — which the paper uses to show that, for graph work, the
biggest machine (c4.8xlarge) is the most expensive per task while the mid
sizes are the sensible picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union

from repro.apps.registry import DEFAULT_APPS, make_app
from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineSpec
from repro.core.profiler import ProxyProfiler
from repro.core.proxy import ProxySet
from repro.engine.report import simulate_execution
from repro.engine.runtime import GraphProcessingSystem
from repro.engine.trace import ExecutionTrace
from repro.engine.vertex_program import GraphApplication
from repro.errors import ClusterError
from repro.graph.digraph import DiGraph

__all__ = [
    "CostPoint",
    "cost_efficiency",
    "pareto_front",
    "projected_runtime_seconds",
]


@dataclass(frozen=True)
class CostPoint:
    """One (machine, application) point of the Fig. 11 Pareto space."""

    machine: str
    app: str
    runtime_seconds: float
    speedup: float
    """Runtime ratio against the baseline machine (higher is faster)."""
    cost_per_task: float
    """Runtime × hourly rate, in USD."""
    relative_cost: float
    """Cost per task relative to the most expensive machine for the app."""


def cost_efficiency(
    machines: Iterable[MachineSpec],
    cluster_template: Cluster,
    apps: Iterable[str] = DEFAULT_APPS,
    proxies: Optional[ProxySet] = None,
    baseline: Optional[str] = None,
) -> List[CostPoint]:
    """Profile machines with proxies and compute cost-per-task points.

    Parameters
    ----------
    machines:
        Priced machine specs to compare.
    cluster_template:
        Supplies the performance/network models (so the study uses the
        same simulation configuration as the experiments).
    apps:
        Applications to include.
    proxies:
        Proxy set used for the profiling runs (defaults to the paper's).
    baseline:
        Machine name whose runtime anchors ``speedup = 1``; defaults to
        the slowest machine per application.
    """
    machine_list = list(machines)
    if not machine_list:
        raise ClusterError("cost study needs at least one machine")
    rates: Dict[str, float] = {}
    for m in machine_list:
        if m.cost_per_hour is None:
            raise ClusterError(
                f"machine {m.name!r} has no hourly rate; Fig. 11 covers "
                "priced (cloud) machines"
            )
        if m.name in rates:
            raise ClusterError(f"machine {m.name!r} is listed twice")
        rates[m.name] = m.cost_per_hour
    reps = {m.name: m for m in machine_list}
    proxy_set = proxies if proxies is not None else ProxySet()
    graphs = proxy_set.graphs()

    points: List[CostPoint] = []
    for app_name in apps:
        # One trace per proxy, priced on each machine.
        times: Dict[str, float] = {m.name: 0.0 for m in machine_list}
        for _proxy, graph in sorted(graphs.items()):
            solo_times = ProxyProfiler._time_on_machines(
                app_name, graph, cluster_template, reps
            )
            for name, t in sorted(solo_times.items()):
                times[name] += t

        if baseline is None:
            anchor = max(times.values())
        else:
            if baseline not in times:
                raise ClusterError(f"baseline machine {baseline!r} not in study")
            anchor = times[baseline]

        costs = {
            m.name: times[m.name] / 3600.0 * rates[m.name]
            for m in machine_list
        }
        max_cost = max(costs.values())
        for m in machine_list:
            points.append(
                CostPoint(
                    machine=m.name,
                    app=app_name,
                    runtime_seconds=times[m.name],
                    speedup=anchor / times[m.name],
                    cost_per_task=costs[m.name],
                    relative_cost=costs[m.name] / max_cost,
                )
            )
    return points


def projected_runtime_seconds(
    cluster: Cluster,
    app: Union[str, GraphApplication],
    graph: DiGraph,
    trace: Optional[ExecutionTrace] = None,
) -> float:
    """CCR-priced a-priori runtime estimate for one (app, graph, cluster).

    The same pricing primitive Fig. 11 uses, turned into a capacity
    estimate: capture (or accept) the app's single-machine trace, price it
    solo on each of the cluster's machines, and combine the per-machine
    times as parallel capabilities — machine ``i`` finishing the whole job
    alone in ``t_i`` seconds contributes rate ``1/t_i``, so a perfectly
    CCR-balanced partition finishes in ``1 / sum(1/t_i)``.

    This is a deliberate *lower bound*: it prices pure compute under the
    ideal Eq. 1 split and ignores mirror synchronisation and barrier
    slack.  The job service uses it for admission control and deadline
    projection, where an optimistic bound errs on the side of admitting
    (overruns are then caught by the actual simulated runtime).

    Parameters
    ----------
    cluster:
        Machines the job would run on.
    app:
        Application name or instance.
    graph:
        The job's input graph.
    trace:
        Optional pre-captured single-machine trace of ``app`` on
        ``graph`` (callers that cache traces pass it to skip re-execution).
    """
    application = make_app(app) if isinstance(app, str) else app
    if trace is None:
        trace = GraphProcessingSystem(cluster).run_single_machine(
            application, graph
        )
    rate = 0.0
    for m in cluster.machines:
        solo = Cluster([m], network=cluster.network, perf=cluster.perf)
        seconds = simulate_execution(trace, solo).runtime_seconds
        if seconds > 0.0:
            rate += 1.0 / seconds
    if rate == 0.0:
        return 0.0
    return 1.0 / rate


def pareto_front(points: Iterable[CostPoint]) -> List[CostPoint]:
    """Non-dominated subset: no other point is faster *and* cheaper."""
    pts = list(points)
    front: List[CostPoint] = []
    for p in pts:
        dominated = any(
            (q.speedup >= p.speedup and q.cost_per_task < p.cost_per_task)
            or (q.speedup > p.speedup and q.cost_per_task <= p.cost_per_task)
            for q in pts
        )
        if not dominated:
            front.append(p)
    return sorted(front, key=lambda p: p.speedup)
