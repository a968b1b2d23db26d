"""Unit tests for repro.graph.digraph."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.digraph import MAX_VERTICES, DiGraph


class TestConstruction:
    def test_counts(self, tiny_graph):
        assert tiny_graph.num_vertices == 5
        assert tiny_graph.num_edges == 7

    def test_empty_graph(self):
        g = DiGraph(3, np.empty(0, np.int64), np.empty(0, np.int64))
        assert g.num_edges == 0 and g.num_vertices == 3

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphError, match="endpoints"):
            DiGraph(2, np.array([0]), np.array([5]))

    def test_negative_endpoint(self):
        with pytest.raises(GraphError):
            DiGraph(2, np.array([-1]), np.array([0]))

    def test_mismatched_lengths(self):
        with pytest.raises(GraphError, match="equal length"):
            DiGraph(3, np.array([0, 1]), np.array([2]))

    def test_negative_vertex_count(self):
        with pytest.raises(GraphError):
            DiGraph(-1, np.empty(0, np.int64), np.empty(0, np.int64))

    def test_edges_read_only(self, tiny_graph):
        src, _ = tiny_graph.edges()
        with pytest.raises(ValueError):
            src[0] = 99

    def test_edge_order_preserved(self):
        src = np.array([3, 1, 2], dtype=np.int64)
        dst = np.array([0, 0, 0], dtype=np.int64)
        g = DiGraph(4, src, dst)
        assert np.array_equal(g.src, src)
        assert np.array_equal(g.dst, dst)


class TestDegrees:
    def test_out_degrees(self, tiny_graph):
        # edges: 0->1, 0->2, 0->3, 1->2, 2->3, 3->0, 0->1 (parallel)
        assert tiny_graph.out_degrees.tolist() == [4, 1, 1, 1, 0]

    def test_in_degrees(self, tiny_graph):
        assert tiny_graph.in_degrees.tolist() == [1, 2, 2, 2, 0]

    def test_total_degrees(self, tiny_graph):
        assert tiny_graph.degrees.tolist() == [5, 3, 3, 3, 0]

    def test_degree_sums_equal_edges(self, powerlaw_graph):
        assert powerlaw_graph.out_degrees.sum() == powerlaw_graph.num_edges
        assert powerlaw_graph.in_degrees.sum() == powerlaw_graph.num_edges


class TestNeighbors:
    def test_out_neighbors_with_multiplicity(self, tiny_graph):
        assert sorted(tiny_graph.out_neighbors(0).tolist()) == [1, 1, 2, 3]

    def test_in_neighbors(self, tiny_graph):
        assert sorted(tiny_graph.in_neighbors(3).tolist()) == [0, 2]

    def test_isolated_vertex(self, tiny_graph):
        assert tiny_graph.out_neighbors(4).size == 0
        assert tiny_graph.in_neighbors(4).size == 0

    def test_vertex_out_of_range(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.out_neighbors(5)

    def test_csr_consistent_with_edges(self, powerlaw_graph):
        g = powerlaw_graph
        v = int(np.argmax(g.out_degrees))
        expected = sorted(g.dst[g.src == v].tolist())
        assert sorted(g.out_neighbors(v).tolist()) == expected


class TestDerivedGraphs:
    def test_reverse_swaps_degrees(self, tiny_graph):
        r = tiny_graph.reverse()
        assert np.array_equal(r.out_degrees, tiny_graph.in_degrees)
        assert np.array_equal(r.in_degrees, tiny_graph.out_degrees)

    def test_reverse_involution(self, tiny_graph):
        assert tiny_graph.reverse().reverse() == tiny_graph

    def test_deduplicate_removes_parallel(self, tiny_graph):
        d = tiny_graph.deduplicate()
        assert d.num_edges == 6
        pairs = set(zip(d.src.tolist(), d.dst.tolist()))
        assert len(pairs) == d.num_edges

    def test_deduplicate_keys_fit_int64_at_the_vertex_bound(self):
        # src * n + dst for the largest ids stays below 2**62 when
        # n == MAX_VERTICES, so no two distinct edges share a key.
        top = MAX_VERTICES - 1
        g = DiGraph(
            MAX_VERTICES,
            np.array([top, top, top - 1, top], dtype=np.int64),
            np.array([top, top - 1, top, top], dtype=np.int64),
        )
        d = g.deduplicate()
        assert list(d.iter_edges()) == [(top, top), (top, top - 1), (top - 1, top)]

    def test_vertex_count_past_the_bound(self):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(GraphError, match="at most"):
            DiGraph(MAX_VERTICES + 1, empty, empty)

    def test_without_self_loops(self):
        g = DiGraph.from_edges([(0, 0), (0, 1), (1, 1)], num_vertices=2)
        clean = g.without_self_loops()
        assert clean.num_edges == 1
        assert (clean.src[0], clean.dst[0]) == (0, 1)


class TestInterop:
    def test_from_edges_infers_vertices(self):
        g = DiGraph.from_edges([(0, 5)])
        assert g.num_vertices == 6

    def test_from_edges_bad_shape(self):
        with pytest.raises(GraphError):
            DiGraph.from_edges(np.zeros((2, 3), dtype=np.int64))

    def test_to_networkx_roundtrip_counts(self, tiny_graph):
        nxg = tiny_graph.to_networkx()
        assert nxg.number_of_nodes() == tiny_graph.num_vertices
        assert nxg.number_of_edges() == tiny_graph.num_edges

    def test_iter_edges(self, ring_graph):
        edges = list(ring_graph.iter_edges())
        assert edges[0] == (0, 1) and len(edges) == 8

    def test_equality(self, tiny_graph):
        other = DiGraph(5, tiny_graph.src.copy(), tiny_graph.dst.copy())
        assert tiny_graph == other

    def test_inequality_different_order(self):
        a = DiGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        b = DiGraph.from_edges([(1, 2), (0, 1)], num_vertices=3)
        assert a != b

    def test_unhashable(self, tiny_graph):
        with pytest.raises(TypeError):
            hash(tiny_graph)

    def test_repr(self, tiny_graph):
        assert "num_vertices=5" in repr(tiny_graph)

    def test_footprint_bytes(self, tiny_graph):
        assert tiny_graph.footprint_bytes == 7 * 2 * 8
