"""Differential equivalence: a warm observed call vs a cold dark call.

Observed runs take the same path as unobserved ones (DESIGN.md §11): at
every kernel-cache site an installed observer still looks the value up,
so a warm call under an observer is served from the cache — it counts a
hit and executes nothing — and returns exactly the bytes a cold,
unobserved call computed.  The summary store is no exception: an
observed replay over a warm store reads its rows.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.apps.pagerank import PageRank
from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.core.profiler import ProxyProfiler
from repro.engine import report as report_module
from repro.engine.report import simulate_execution
from repro.engine.runtime import execute_partition
from repro.experiments.fig8 import machine_speedups
from repro.federation import FederationService
from repro.kernels.cache import attach_store, cache_stats, clear_all_caches
from repro.partition import make_partitioner
from repro.powerlaw.generator import generate_power_law_graph
from repro.service import GraphSpec, JobRequest, Workload
from repro.service.estimate import projected_seconds
from repro.store import SummaryStore
from repro.utils.canonical import jsonable

MACHINES = ("m4.2xlarge", "c4.2xlarge")
PERF = PerformanceModel(model_scale=0.01)


def _cluster() -> Cluster:
    return Cluster([get_machine(name) for name in MACHINES], perf=PERF)


def _graph():
    return generate_power_law_graph(num_vertices=300, alpha=2.1, seed=0)


def _partition(graph):
    return make_partitioner("hybrid", seed=3).partition(graph, len(MACHINES))


def _report_bytes(report) -> str:
    return json.dumps(
        [
            report.runtime_seconds,
            report.energy_joules,
            [vars(m) for m in report.machines],
            jsonable(report.result),
            list(report.warnings),
        ],
        sort_keys=True,
    )


def _execute(graph) -> str:
    return execute_partition(PageRank(), _partition(graph))[1].canonical_json()


def _price(graph) -> str:
    _, trace = execute_partition(PageRank(), _partition(graph))
    return _report_bytes(simulate_execution(trace, _cluster()))


def _profile_trace(graph) -> str:
    trace = ProxyProfiler._single_machine_trace("pagerank", graph, _cluster())
    return trace.canonical_json()


def _profile_times(graph) -> str:
    cluster = _cluster()
    times = ProxyProfiler._time_on_machines(
        "pagerank", graph, cluster, cluster.representatives()
    )
    return repr(sorted(times.items()))


def _assignment(graph) -> bytes:
    return _partition(graph).assignment.tobytes()


def _estimate(graph) -> str:
    return repr(projected_seconds(_cluster(), "pagerank", graph))


def _speedups(graph) -> bytes:
    return machine_speedups("pagerank", graph, MACHINES, PERF).tobytes()


#: (former gate site, call, namespaces whose hits a warm call bumps).
SITES = [
    ("execute_partition", _execute, ("dgraph", "trace")),
    ("simulate_execution", _price, ("trace",)),
    ("_single_machine_trace", _profile_trace, ("profile_trace",)),
    ("_time_on_machines", _profile_times, ("machine_time",)),
    ("Partitioner.partition", _assignment, ("assignment",)),
    ("projected_seconds", _estimate, ("estimate",)),
    ("machine_speedups", _speedups, ("machine_time",)),
]


@pytest.fixture
def count_walks(monkeypatch):
    """Count real pricing walks (price-memo misses)."""
    calls = []
    walk = report_module._price

    def counted(trace, cluster):
        calls.append(trace.num_supersteps)
        return walk(trace, cluster)

    monkeypatch.setattr(report_module, "_price", counted)
    return calls


@pytest.mark.parametrize(
    "call, namespaces", [site[1:] for site in SITES], ids=[s[0] for s in SITES]
)
def test_warm_observed_call_is_a_hit_with_cold_bytes(
    call, namespaces, count_walks
):
    graph = _graph()
    cold = call(graph)
    before = cache_stats()
    walks = len(count_walks)

    observer = obs.Observer()
    with obs.enabled(observer):
        warm = call(graph)
    after = cache_stats()

    assert warm == cold
    for ns in namespaces:
        assert after[ns]["hits"] > before[ns]["hits"], ns
    assert {ns: s["misses"] for ns, s in after.items()} == {
        ns: s["misses"] for ns, s in before.items()
    }
    # Nothing was executed or priced again, so nothing was traced.
    assert len(count_walks) == walks
    assert not observer.tracer.named("engine/run")


def test_observed_replay_reads_a_warm_store(tmp_path):
    workload = Workload(
        jobs=tuple(
            JobRequest(
                job_id=f"j{i}",
                app=("pagerank", "connected_components")[i % 2],
                submit_s=10.0 * i,
                graph=GraphSpec(vertices=300, alpha=2.1, seed=i % 2),
            )
            for i in range(4)
        ),
        seed=0,
    )
    with SummaryStore.create(str(tmp_path / "s.db")) as store:
        attach_store(store)
        cold = FederationService(
            [_cluster()]
        ).run_workload(workload).trace_json()
        rows = store.counts()
        assert sum(rows.values()) > 0

        clear_all_caches()
        with obs.enabled(obs.Observer()):
            observed = FederationService(
                [_cluster()]
            ).run_workload(workload).trace_json()
        assert observed == cold
        assert sum(s["store_hits"] for s in cache_stats().values()) > 0
        # Every row the observed replay needed was already there.
        assert store.counts() == rows
