"""Differential equivalence: the memoised ``execute_partition`` vs a fresh run.

``execute_partition`` serves every runtime's engine execution from a
content-keyed trace cache (DESIGN.md §11).  Sharing one trace object is
safe only if (a) a hit returns exactly the bytes a fresh
``app.execute(DistributedGraph(p))`` would, (b) the key separates every
configuration that can change a trace, and (c) pricing never mutates the
trace it reads.  This module checks all three.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.pagerank import PageRank
from repro.apps.registry import DEFAULT_APPS, make_app
from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.engine.distributed_graph import DistributedGraph
from repro.engine.report import simulate_execution
from repro.engine.resilient import simulate_resilient_execution
from repro.engine.runtime import execute_partition
from repro.errors import ConvergenceError
from repro.faults.checkpoint import CheckpointPolicy
from repro.faults.schedule import CrashFault, FaultSchedule, SlowdownFault
from repro.faults.supervisor import Supervisor
from repro.graph.digraph import DiGraph
from repro.kernels.cache import trace_cache
from repro.partition import make_partitioner
from repro.powerlaw.generator import generate_power_law_graph
from tests.equivalence.test_backend_equivalence import (
    NUM_MACHINES,
    PARTITIONERS,
    WEIGHTS,
    _edge_case_graphs,
)


@pytest.fixture(scope="module")
def pl_graph() -> DiGraph:
    return generate_power_law_graph(num_vertices=300, alpha=2.0, seed=11)


def _partition(name: str, graph: DiGraph):
    return make_partitioner(name, seed=3).partition(
        graph, NUM_MACHINES, np.array(WEIGHTS)
    )


def _assert_cached_equals_fresh(app_name: str, partitioner_name: str, graph):
    partition = _partition(partitioner_name, graph)
    app = make_app(app_name)
    _, cold = execute_partition(app, partition)
    _, warm = execute_partition(make_app(app_name), partition)
    fresh = make_app(app_name).execute(DistributedGraph(partition))
    assert warm is cold
    assert trace_cache.stats()["hits"] == 1
    assert trace_cache.stats()["misses"] == 1
    assert cold.canonical_json() == fresh.canonical_json()


@pytest.mark.parametrize("partitioner_name", PARTITIONERS)
@pytest.mark.parametrize("app_name", DEFAULT_APPS)
def test_cached_trace_bit_identical(app_name, partitioner_name, pl_graph):
    """Every app × partitioner: cold, warm and fresh traces are equal bytes."""
    _assert_cached_equals_fresh(app_name, partitioner_name, pl_graph)


@pytest.mark.parametrize("partitioner_name", PARTITIONERS)
@pytest.mark.parametrize("app_name", DEFAULT_APPS)
@pytest.mark.parametrize("graph_name", sorted(_edge_case_graphs()))
def test_cached_trace_edge_case_graphs(app_name, partitioner_name, graph_name):
    """Degenerate graphs (no edges, singleton, disconnected, duplicates)."""
    _assert_cached_equals_fresh(
        app_name, partitioner_name, _edge_case_graphs()[graph_name]
    )


class TestKeySeparation:
    def test_shed_cap_gets_its_own_entry(self, pl_graph):
        partition = _partition("hybrid", pl_graph)
        _, full = execute_partition(PageRank(), partition)
        _, shed = execute_partition(PageRank(max_supersteps=3), partition)
        assert trace_cache.stats()["size"] == 2
        assert trace_cache.stats()["hits"] == 0
        assert shed.num_supersteps == 3
        assert shed.result["converged"] is False
        assert full.canonical_json() != shed.canonical_json()

    def test_strict_flag_after_non_strict_hit_still_raises(self, pl_graph):
        partition = _partition("hybrid", pl_graph)
        app = PageRank(max_supersteps=2)
        _, trace = execute_partition(app, partition)
        assert trace.result["converged"] is False
        app.strict = True
        with pytest.raises(ConvergenceError):
            execute_partition(app, partition)
        assert trace_cache.stats()["size"] == 1

    def test_app_with_array_state_is_never_cached(self, pl_graph):
        partition = _partition("hybrid", pl_graph)
        app = PageRank()
        app.hint = np.ones(3)
        _, first = execute_partition(app, partition)
        _, second = execute_partition(app, partition)
        assert first is not second
        assert first.canonical_json() == second.canonical_json()
        stats = trace_cache.stats()
        assert (stats["size"], stats["hits"], stats["misses"]) == (0, 0, 0)

    def test_bool_and_int_state_do_not_collide(self, pl_graph):
        partition = _partition("hybrid", pl_graph)
        a, b = PageRank(), PageRank()
        a.flag, b.flag = True, 1
        execute_partition(a, partition)
        execute_partition(b, partition)
        assert trace_cache.stats()["size"] == 2


SCALE = 0.002


@pytest.fixture(scope="module")
def cluster() -> Cluster:
    return Cluster(
        [get_machine("m4.2xlarge")] * 2 + [get_machine("c4.2xlarge")] * 2,
        perf=PerformanceModel(model_scale=SCALE),
    )


@pytest.fixture(scope="module")
def wiki():
    from repro.graph.datasets import load_dataset

    return load_dataset("wiki", scale=SCALE)


class TestPricingPurity:
    """Pricing reads a trace and never writes it: one object may serve
    every run, every cluster and every fault schedule."""

    def _trace(self, graph, partitioner="hybrid", weights=None):
        partition = make_partitioner(partitioner).partition(
            graph, NUM_MACHINES, weights=weights
        )
        return PageRank().execute(DistributedGraph(partition))

    def test_static_pricing(self, cluster, wiki):
        trace = self._trace(wiki)
        before = trace.canonical_json()
        simulate_execution(trace, cluster)
        assert trace.canonical_json() == before

    def test_crash_schedule(self, cluster, wiki):
        trace = self._trace(wiki)
        before = trace.canonical_json()
        report = simulate_resilient_execution(
            trace,
            cluster,
            schedule=FaultSchedule(crashes=(CrashFault(3, machine=1),)),
            checkpoint=CheckpointPolicy(interval=2, restart_seconds=0.5),
            seed=5,
        )
        assert report.recovery.crashes == 1
        assert trace.canonical_json() == before

    def test_supervisor_rebalance(self, cluster, wiki):
        trace = self._trace(wiki)
        spliced = self._trace(wiki, weights=np.array([0.25, 1.0, 1.0, 1.0]))
        before = (trace.canonical_json(), spliced.canonical_json())
        report = simulate_resilient_execution(
            trace,
            cluster,
            schedule=FaultSchedule(
                slowdowns=(
                    SlowdownFault(4, machine=0, factor=4.0, duration=None),
                ),
                seed=5,
            ),
            checkpoint=CheckpointPolicy(interval=0, restart_seconds=0.0),
            supervisor=Supervisor(),
            rebalancer=lambda superstep, factors: (spliced, 0.01),
        )
        assert report.rebalance is not None
        assert (trace.canonical_json(), spliced.canonical_json()) == before
