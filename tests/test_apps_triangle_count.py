"""Triangle Count correctness against NetworkX and analytic cases."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.triangle_count import (
    TriangleCount,
    skeleton_degrees,
    undirected_simple_edges,
)
from repro.core.proxy import ProxySet
from repro.graph.datasets import load_dataset
from repro.engine.distributed_graph import DistributedGraph
from repro.graph.digraph import DiGraph
from repro.partition import RandomHashPartitioner
from repro.partition.base import PartitionResult


def nx_triangles(graph):
    und = graph.to_networkx().to_undirected()
    und = nx.Graph(und)
    und.remove_edges_from(nx.selfloop_edges(und))
    return sum(nx.triangles(und).values()) // 3


@st.composite
def messy_digraphs(draw):
    """Small digraphs with self loops, parallel and reciprocal edges and
    isolated vertices (ids above every endpoint drawn)."""
    n = draw(st.integers(min_value=1, max_value=24))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=90)
    )
    reciprocal = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    edges = pairs + [(d, s) for s, d in reciprocal] + pairs[:5]
    isolated = draw(st.integers(min_value=0, max_value=4))
    return DiGraph.from_edges(edges, num_vertices=n + isolated)


class TestUndirectedSimpleEdges:
    def test_dedup_and_orientation(self):
        g = DiGraph.from_edges([(1, 0), (0, 1), (0, 1), (2, 2)], num_vertices=3)
        u, v = undirected_simple_edges(g)
        assert u.tolist() == [0] and v.tolist() == [1]

    def test_self_loops_removed(self):
        g = DiGraph.from_edges([(0, 0)], num_vertices=1)
        u, v = undirected_simple_edges(g)
        assert u.size == 0


class TestCounting:
    def test_single_triangle(self):
        g = DiGraph.from_edges([(0, 1), (1, 2), (2, 0)], num_vertices=3)
        assert TriangleCount().count_triangles(g) == 1

    def test_triangle_with_reciprocal_edges_counted_once(self):
        g = DiGraph.from_edges(
            [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)], num_vertices=3
        )
        assert TriangleCount().count_triangles(g) == 1

    def test_ring_has_none(self, ring_graph):
        assert TriangleCount().count_triangles(ring_graph) == 0

    def test_complete_graph(self):
        n = 7
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = DiGraph.from_edges(edges, num_vertices=n)
        expected = n * (n - 1) * (n - 2) // 6
        assert TriangleCount().count_triangles(g) == expected

    def test_matches_networkx(self, powerlaw_graph):
        assert TriangleCount().count_triangles(powerlaw_graph) == nx_triangles(
            powerlaw_graph
        )

    def test_row_block_invariance(self, powerlaw_graph):
        """Chunked products give the same count for any block size."""
        a = TriangleCount(row_block=37).count_triangles(powerlaw_graph)
        b = TriangleCount(row_block=100_000).count_triangles(powerlaw_graph)
        assert a == b

    @given(messy_digraphs(), st.sampled_from([1, 2, 7, 4096]))
    @settings(max_examples=150, deadline=None)
    def test_matches_networkx_on_messy_digraphs(self, graph, row_block):
        assert TriangleCount(row_block=row_block).count_triangles(
            graph
        ) == nx_triangles(graph)

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("proxy_alpha_1.95", 52_373),
            ("proxy_alpha_2.10", 55_001),
            ("proxy_alpha_2.25", 1_053),
        ],
    )
    def test_default_proxy_totals(self, name, expected):
        """The three default proxies at 40,000 vertices, as profiled by
        the ``process-cold`` benchmark workload."""
        graph = ProxySet(num_vertices=40_000).graphs()[name]
        assert TriangleCount().count_triangles(graph) == expected

    def test_wiki_total(self):
        graph = load_dataset("wiki", scale=0.0125)
        assert TriangleCount().count_triangles(graph) == 157

    def test_empty_graph(self):
        g = DiGraph(5, np.empty(0, np.int64), np.empty(0, np.int64))
        assert TriangleCount().count_triangles(g) == 0

    def test_invalid_row_block(self):
        with pytest.raises(ValueError):
            TriangleCount(row_block=0)


class TestSkeletonDegrees:
    def test_counts_each_simple_neighbour_once(self, tiny_graph):
        deg = skeleton_degrees(tiny_graph)
        assert deg.tolist() == [3, 2, 3, 2, 0]
        assert deg.dtype == np.int64

    def test_memoised_and_read_only(self, tiny_graph):
        deg = skeleton_degrees(tiny_graph)
        assert skeleton_degrees(tiny_graph) is deg
        with pytest.raises(ValueError):
            deg[0] = 7


def test_numpy_is_the_only_dependency_loaded():
    """Importing every ``repro`` module, counting one graph's triangles
    and colouring it loads no third-party module besides numpy, and not
    ``numpy.ma`` either (``np.unique`` imports it on first use)."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = textwrap.dedent(
        """
        import importlib, pkgutil, sys
        import numpy.random

        def top_level():
            return {name.split(".")[0] for name in sys.modules}

        baseline = top_level()
        import repro
        from repro.apps.coloring import GraphColoring
        from repro.apps.triangle_count import TriangleCount
        from repro.graph.digraph import DiGraph

        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)
        graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 0)], num_vertices=3)
        assert TriangleCount().count_triangles(graph) == 1
        colors, _ = GraphColoring().color(graph)
        assert sorted(colors.tolist()) == [0, 1, 2]
        assert "numpy.ma" not in sys.modules
        extra = top_level() - baseline - set(sys.stdlib_module_names)
        print(sorted(extra - {"repro"}))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


class TestExecution:
    def test_single_superstep(self, powerlaw_graph):
        part = RandomHashPartitioner(seed=1).partition(powerlaw_graph, 4)
        trace = TriangleCount().execute(DistributedGraph(part))
        assert trace.num_supersteps == 1
        assert trace.result["triangles"] == nx_triangles(powerlaw_graph)

    def test_work_follows_degree_products(self):
        """A machine holding hub edges counts more intersection work."""
        hub_edges = [(0, i) for i in range(1, 30)]
        chain = [(30, 31)]
        g = DiGraph.from_edges(hub_edges + chain, num_vertices=32)
        assignment = np.array([0] * 29 + [1], dtype=np.int32)
        part = PartitionResult(g, assignment, 2, "manual", None)
        trace = TriangleCount().execute(DistributedGraph(part))
        flops = [p.work.flops for p in trace.supersteps[0].phases]
        assert flops[0] > 10 * flops[1]

    def test_distribution_does_not_change_count(self, powerlaw_graph):
        solo = PartitionResult(
            powerlaw_graph,
            np.zeros(powerlaw_graph.num_edges, np.int32),
            1,
            "single",
            None,
        )
        a = TriangleCount().execute(DistributedGraph(solo)).result["triangles"]
        part = RandomHashPartitioner(seed=5).partition(powerlaw_graph, 3)
        b = TriangleCount().execute(DistributedGraph(part)).result["triangles"]
        assert a == b
