"""Unit tests for the synchronous GAS engine.

The decisive property: executing a program on a *partitioned* graph gives
bit-identical results to executing it on a single machine — the
mirror/master aggregation must be invisible to the algorithm.
"""

import numpy as np
import pytest

from repro.apps.connected_components import ConnectedComponents
from repro.apps.pagerank import PageRank
from repro.engine.distributed_graph import DistributedGraph
from repro.engine.sync_engine import SyncEngine
from repro.engine.vertex_program import SyncVertexProgram
from repro.errors import EngineError
from repro.partition import RandomHashPartitioner
from repro.partition.base import PartitionResult


def distribute(graph, machines, seed=1):
    if machines == 1:
        part = PartitionResult(
            graph, np.zeros(graph.num_edges, np.int32), 1, "single", None
        )
    else:
        part = RandomHashPartitioner(seed=seed).partition(graph, machines)
    return DistributedGraph(part)


class TestDistributionInvariance:
    """Partitioning must not change any algorithm result."""

    def test_pagerank_ranks_identical(self, powerlaw_graph):
        solo = SyncEngine().run(PageRank(), distribute(powerlaw_graph, 1))
        quad = SyncEngine().run(PageRank(), distribute(powerlaw_graph, 4))
        np.testing.assert_allclose(
            solo.result["ranks"], quad.result["ranks"], rtol=1e-12
        )

    def test_cc_labels_identical(self, powerlaw_graph):
        solo = SyncEngine().run(ConnectedComponents(), distribute(powerlaw_graph, 1))
        quad = SyncEngine().run(ConnectedComponents(), distribute(powerlaw_graph, 4))
        assert np.array_equal(solo.result["labels"], quad.result["labels"])

    def test_superstep_counts_identical(self, powerlaw_graph):
        solo = SyncEngine().run(ConnectedComponents(), distribute(powerlaw_graph, 1))
        quad = SyncEngine().run(ConnectedComponents(), distribute(powerlaw_graph, 4))
        assert solo.num_supersteps == quad.num_supersteps


class TestAccounting:
    def test_edge_ops_cover_all_edges_when_all_active(self, powerlaw_graph):
        """PageRank's first superstep gathers over every edge exactly once."""
        dg = distribute(powerlaw_graph, 4)
        trace = SyncEngine().run(PageRank(max_supersteps=1), dg)
        step = trace.supersteps[0]
        pr = PageRank()
        edge_flops = sum(
            p.work.flops + p.work.serial_flops for p in step.phases
        )
        # Total flops >= edges * per-edge cost (plus vertex ops and serial).
        assert edge_flops >= powerlaw_graph.num_edges * pr.cost.flops_per_edge_op * (
            1 - 1e-9
        )

    def test_work_distribution_follows_partition(self, powerlaw_graph):
        dg = distribute(powerlaw_graph, 4)
        trace = SyncEngine().run(PageRank(max_supersteps=1), dg)
        flops = np.array([p.work.flops for p in trace.supersteps[0].phases])
        edges = np.array([dg.local_edge_count(i) for i in range(4)])
        # Per-machine gather work tracks local edge counts (vertex ops add
        # noise, so compare shares loosely).
        np.testing.assert_allclose(
            flops / flops.sum(), edges / edges.sum(), atol=0.05
        )

    def test_comm_zero_on_single_machine(self, powerlaw_graph):
        trace = SyncEngine().run(PageRank(max_supersteps=2), distribute(powerlaw_graph, 1))
        assert trace.total_comm_bytes() == 0.0

    def test_comm_positive_when_partitioned(self, powerlaw_graph):
        trace = SyncEngine().run(PageRank(max_supersteps=2), distribute(powerlaw_graph, 4))
        assert trace.total_comm_bytes() > 0.0

    def test_frontier_shrinks_cc_work(self, powerlaw_graph):
        """CC's active frontier decays, so later supersteps count less work."""
        trace = SyncEngine().run(ConnectedComponents(), distribute(powerlaw_graph, 2))
        per_step = [
            sum(p.work.flops for p in s.phases) for s in trace.supersteps
        ]
        assert per_step[-1] < per_step[0]


class TestProgramValidation:
    def test_bad_accumulator_rejected(self, tiny_graph):
        class Bad(PageRank):
            accumulator = "product"

        with pytest.raises(EngineError, match="accumulator"):
            SyncEngine().run(Bad(), distribute(tiny_graph, 1))

    def test_bad_initial_shape_rejected(self, tiny_graph):
        class Bad(PageRank):
            def initial_values(self, graph):
                return np.ones(3)

        with pytest.raises(EngineError, match="initial_values"):
            SyncEngine().run(Bad(), distribute(tiny_graph, 1))

    def test_bad_apply_shape_rejected(self, tiny_graph):
        class Bad(PageRank):
            def apply(self, graph, values, acc, has_message):
                return np.ones(2), np.ones(2, dtype=bool)

        with pytest.raises(EngineError, match="apply"):
            SyncEngine().run(Bad(), distribute(tiny_graph, 1))

    def test_non_elementwise_program_rejected(self, tiny_graph):
        class Batchwise(PageRank):
            messages_elementwise = False

        with pytest.raises(EngineError, match="elementwise"):
            SyncEngine().run(Batchwise(), distribute(tiny_graph, 1))

    def test_undirected_sum_program_rejected(self, tiny_graph):
        class Undirected(PageRank):
            undirected = True

        with pytest.raises(EngineError, match="directed"):
            SyncEngine().run(Undirected(), distribute(tiny_graph, 1))

    def test_bad_min_apply_shape_rejected(self, tiny_graph):
        class Bad(ConnectedComponents):
            def apply(self, graph, values, acc, has_message):
                return np.ones(2), np.ones(2, dtype=bool)

        with pytest.raises(EngineError, match="apply"):
            SyncEngine().run(Bad(), distribute(tiny_graph, 2))

    def test_max_supersteps_caps_runaway(self, ring_graph):
        class NeverConverges(PageRank):
            def apply(self, graph, values, acc, has_message):
                return values + 1.0, np.ones(graph.num_vertices, dtype=bool)

        program = NeverConverges()
        program.max_supersteps = 7
        trace = SyncEngine().run(program, distribute(ring_graph, 1))
        assert trace.num_supersteps == 7
        assert trace.result["converged"] is False
