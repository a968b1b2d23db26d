"""Differential equivalence: production vs the reference loops.

The contract (DESIGN.md §11): every artefact the library emits —
partition assignments, ExecutionTrace canonical JSON, CCR estimates,
experiment rows — must be **bit-identical** to what the reference loops
under ``tests/oracle/`` produce, and to what a warm-cache rerun produces.
These tests run the pipeline both ways and compare bytes, over every
app × partitioner combination and a set of degenerate graphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.pagerank import PageRank
from repro.apps.registry import DEFAULT_APPS, make_app
from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineSpec
from repro.core.profiler import ProxyProfiler
from repro.core.proxy import ProxySet
from repro.engine.distributed_graph import DistributedGraph
from repro.graph.digraph import DiGraph
from repro.kernels.cache import (
    assignment_cache,
    clear_all_caches,
    machine_time_cache,
)
from repro.partition import make_partitioner
from repro.partition.base import PartitionResult
from repro.powerlaw.generator import generate_power_law_graph
from tests.oracle.engine import (
    reference_layout,
    reference_sync_bytes,
    reference_sync_run,
)
from tests.oracle.pipeline import run_pipeline

PARTITIONERS = ("random_hash", "grid", "oblivious", "hybrid", "ginger")
#: Deliberately non-uniform: exercises the weighted paths of every
#: partitioner and the heterogeneity-aware balance terms.
WEIGHTS = (1.0, 2.0, 1.5, 0.5)
NUM_MACHINES = 4


@pytest.fixture(scope="module")
def pl_graph() -> DiGraph:
    return generate_power_law_graph(num_vertices=300, alpha=2.0, seed=11)


def _edge_case_graphs():
    empty = np.empty(0, dtype=np.int64)
    return {
        "no_edges": DiGraph(5, empty, empty),
        "single_vertex": DiGraph(1, empty, empty),
        # Two triangles plus isolated vertices 6-8.
        "disconnected": DiGraph.from_edges(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], num_vertices=9
        ),
        # Parallel edges, reciprocal pair and self loops.
        "duplicates": DiGraph.from_edges(
            [(0, 0), (0, 1), (0, 1), (1, 0), (2, 2), (1, 2), (1, 2), (3, 1)],
            num_vertices=4,
        ),
    }


def _assert_matches_reference(app_name, partitioner_name, graph):
    """Production (from cold caches) and the references emit equal bytes."""
    results = {}
    for implementation in ("vectorized", "scalar"):
        clear_all_caches()
        res, trace = run_pipeline(
            implementation, app_name, partitioner_name, graph,
            NUM_MACHINES, np.array(WEIGHTS),
        )
        results[implementation] = (res.assignment.tobytes(), trace.canonical_json())
    assert results["vectorized"] == results["scalar"]


@pytest.mark.parametrize("partitioner_name", PARTITIONERS)
@pytest.mark.parametrize("app_name", DEFAULT_APPS)
def test_trace_bit_identical(app_name, partitioner_name, pl_graph):
    """Every app × partitioner: same assignment bytes, same trace JSON."""
    _assert_matches_reference(app_name, partitioner_name, pl_graph)


@pytest.mark.parametrize("partitioner_name", PARTITIONERS)
@pytest.mark.parametrize("app_name", DEFAULT_APPS)
@pytest.mark.parametrize("graph_name", sorted(_edge_case_graphs()))
def test_edge_case_graphs_bit_identical(app_name, partitioner_name, graph_name):
    """Degenerate graphs (no edges, singleton, disconnected, duplicates)."""
    _assert_matches_reference(
        app_name, partitioner_name, _edge_case_graphs()[graph_name]
    )


@pytest.mark.parametrize("partitioner_name", PARTITIONERS)
@pytest.mark.parametrize("graph_name", ["powerlaw"] + sorted(_edge_case_graphs()))
def test_layout_and_sync_bytes_match_reference(
    partitioner_name, graph_name, pl_graph
):
    """Counting-sort layout and matvec sync count vs argsort and row-sum."""
    graph = pl_graph if graph_name == "powerlaw" else _edge_case_graphs()[graph_name]
    res = make_partitioner(partitioner_name, seed=3).partition(
        graph, NUM_MACHINES, np.array(WEIGHTS)
    )
    dgraph = DistributedGraph(res)
    edge_ids, local_src, local_dst = reference_layout(res)
    for ours, ref in (
        (dgraph.edge_ids, edge_ids),
        (dgraph.local_src, local_src),
        (dgraph.local_dst, local_dst),
    ):
        assert [a.tobytes() for a in ours] == [b.tobytes() for b in ref]
    n = graph.num_vertices
    rng = np.random.default_rng(5)
    # Everything, nothing, and sparse and dense random frontiers (the
    # production count switches algorithm on the active share).
    for active in (
        np.ones(n, dtype=bool),
        np.zeros(n, dtype=bool),
        rng.random(n) < 0.05,
        rng.random(n) < 0.6,
    ):
        assert (
            dgraph.sync_bytes(active, 8).tobytes()
            == reference_sync_bytes(dgraph, active, 8).tobytes()
        )


class _DeltaPageRank(PageRank):
    """PageRank with a per-vertex frontier: only vertices whose rank moved
    stay active, so the sum gather takes its partial-frontier branch."""

    def initial_active(self, graph):
        return np.arange(graph.num_vertices) % 3 == 0

    def apply(self, graph, values, acc, has_message):
        new_values = (1.0 - self.damping) + self.damping * acc
        return new_values, np.abs(new_values - values) > self.tolerance


def _one_machine_partition(graph: DiGraph) -> PartitionResult:
    """Every edge on one machine: the layout whose edge view is the
    graph's own read-only endpoint arrays."""
    return PartitionResult(
        graph=graph,
        assignment=np.zeros(graph.num_edges, dtype=np.int32),
        num_machines=1,
        algorithm="single",
        weights=np.array([1.0]),
    )


@pytest.mark.parametrize("partitioner_name", PARTITIONERS + ("single",))
@pytest.mark.parametrize("graph_name", ["powerlaw"] + sorted(_edge_case_graphs()))
def test_partial_frontier_sum_gather_matches_reference(
    partitioner_name, graph_name, pl_graph
):
    """Per-machine live counts read at the view's bounds equal the
    per-machine loop's, superstep by superstep, on four machines and on
    one (``"single"``)."""
    graph = pl_graph if graph_name == "powerlaw" else _edge_case_graphs()[graph_name]
    if partitioner_name == "single":
        res = _one_machine_partition(graph)
    else:
        res = make_partitioner(partitioner_name, seed=3).partition(
            graph, NUM_MACHINES, np.array(WEIGHTS)
        )
    program = _DeltaPageRank(max_supersteps=12)
    ours = program.execute(DistributedGraph(res))
    ref = reference_sync_run(program, DistributedGraph(res))
    assert ours.canonical_json() == ref.canonical_json()


def test_profiler_ccr_identical():
    """Proxy-profiled CCR pools match to the last bit, cold vs warm."""
    slow = MachineSpec("slow", hw_threads=4, freq_ghz=2.0, mem_bw_gbs=8.0,
                       llc_mb=4.0)
    fast = MachineSpec("fast", hw_threads=8, freq_ghz=3.2, mem_bw_gbs=20.0,
                       llc_mb=12.0)
    clear_all_caches()
    pools = []
    for _ in range(2):
        profiler = ProxyProfiler(
            proxies=ProxySet(num_vertices=400, seed=5),
            apps=("pagerank", "connected_components"),
        )
        report = profiler.profile(Cluster([slow, fast]))
        pools.append(
            {app: report.pool.get(app).as_dict() for app in report.pool.apps()}
        )
    assert machine_time_cache.hits >= 1  # the second pass ran warm
    assert pools[0] == pools[1]


def test_fig8a_rows_identical():
    """A whole experiment driver produces identical rows cold and warm."""
    from repro.experiments.fig8 import run_fig8a

    clear_all_caches()
    rows = [
        run_fig8a(scale=0.002, apps=("pagerank",), seed=100).rows()
        for _ in range(2)
    ]
    assert machine_time_cache.hits >= 1
    assert rows[0] == rows[1]


def test_vectorized_cache_hits_preserve_results(pl_graph):
    """A warm-cache rerun returns the bytes the cold run produced."""
    clear_all_caches()
    outputs = []
    for _ in range(2):
        part = make_partitioner("hybrid", seed=3)
        res = part.partition(pl_graph, NUM_MACHINES, np.array(WEIGHTS))
        trace = make_app("coloring").execute(DistributedGraph(res))
        outputs.append((res.assignment.copy(), trace.canonical_json()))
    assert assignment_cache.hits >= 1  # the rerun actually hit
    assert np.array_equal(outputs[0][0], outputs[1][0])
    assert outputs[0][1] == outputs[1][1]
