"""Unit tests for repro.engine.runtime (GraphProcessingSystem)."""

from repro.apps.pagerank import PageRank
from repro.engine.runtime import GraphProcessingSystem
from repro.partition import HybridPartitioner


class TestRun:
    def test_outcome_pieces(self, powerlaw_graph, hetero_pair):
        sys_ = GraphProcessingSystem(hetero_pair)
        out = sys_.run(PageRank(), powerlaw_graph, HybridPartitioner(seed=1))
        assert out.partition.num_machines == 2
        assert out.dgraph.num_machines == 2
        assert out.trace.app == "pagerank"
        assert out.report.runtime_seconds > 0

    def test_weights_reach_partitioner(self, powerlaw_graph, hetero_pair):
        sys_ = GraphProcessingSystem(hetero_pair)
        out = sys_.run(
            PageRank(), powerlaw_graph, HybridPartitioner(seed=1), weights=[1, 4]
        )
        counts = out.partition.edges_per_machine()
        assert counts[1] > 3 * counts[0]

    def test_weighted_run_beats_uniform_on_hetero(self, powerlaw_graph, hetero_pair):
        """Loading the fast machine according to capability reduces runtime."""
        sys_ = GraphProcessingSystem(hetero_pair)
        uniform = sys_.run(PageRank(), powerlaw_graph, HybridPartitioner(seed=1))
        weighted = sys_.run(
            PageRank(), powerlaw_graph, HybridPartitioner(seed=1), weights=[1, 2]
        )
        assert weighted.report.runtime_seconds < uniform.report.runtime_seconds


class TestSingleMachineProfiling:
    def test_trace_has_one_partition(self, powerlaw_graph, hetero_pair):
        sys_ = GraphProcessingSystem(hetero_pair)
        trace = sys_.run_single_machine(PageRank(), powerlaw_graph)
        assert trace.num_machines == 1

    def test_no_communication(self, powerlaw_graph, hetero_pair):
        sys_ = GraphProcessingSystem(hetero_pair)
        trace = sys_.run_single_machine(PageRank(), powerlaw_graph)
        assert trace.total_comm_bytes() == 0.0

