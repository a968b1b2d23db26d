"""Graph Coloring correctness: validity, colour counts, wave structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.coloring import GraphColoring
from repro.apps.triangle_count import undirected_simple_edges
from repro.engine.distributed_graph import DistributedGraph
from repro.errors import EngineError
from repro.graph.digraph import DiGraph
from repro.partition import RandomHashPartitioner
from repro.partition.base import PartitionResult
from tests.oracle.coloring import reference_color


def assert_proper(graph, colors):
    u, v = undirected_simple_edges(graph)
    assert np.all(colors[u] != colors[v]), "adjacent vertices share a colour"


class TestValidity:
    def test_powerlaw_proper(self, powerlaw_graph):
        colors, _ = GraphColoring(seed=1).color(powerlaw_graph)
        assert_proper(powerlaw_graph, colors)
        assert colors.min() >= 0

    def test_ring_two_or_three_colors(self, ring_graph):
        """An even cycle is 2-chromatic; greedy may need 3."""
        colors, _ = GraphColoring(seed=1).color(ring_graph)
        assert_proper(ring_graph, colors)
        assert colors.max() + 1 <= 3

    def test_star_two_colors(self, star_graph):
        colors, _ = GraphColoring(seed=1).color(star_graph)
        assert_proper(star_graph, colors)
        assert colors.max() + 1 == 2

    def test_complete_graph_needs_n(self):
        n = 6
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = DiGraph.from_edges(edges, num_vertices=n)
        colors, _ = GraphColoring(seed=1).color(g)
        assert_proper(g, colors)
        assert colors.max() + 1 == n

    def test_isolated_vertices_color_zero(self):
        g = DiGraph.from_edges([(0, 1)], num_vertices=4)
        colors, _ = GraphColoring(seed=1).color(g)
        assert colors[2] == 0 and colors[3] == 0

    def test_reciprocal_and_parallel_edges(self):
        g = DiGraph.from_edges([(0, 1), (1, 0), (0, 1)], num_vertices=2)
        colors, _ = GraphColoring(seed=1).color(g)
        assert colors[0] != colors[1]

    def test_deterministic(self, powerlaw_graph):
        a, _ = GraphColoring(seed=4).color(powerlaw_graph)
        b, _ = GraphColoring(seed=4).color(powerlaw_graph)
        assert np.array_equal(a, b)


class TestWaves:
    def test_waves_are_independent_sets(self, powerlaw_graph):
        """Within one Jones–Plassmann wave no two vertices are adjacent."""
        _, rounds_log = GraphColoring(seed=1).color(powerlaw_graph)
        u, v = undirected_simple_edges(powerlaw_graph)
        for winners in rounds_log:
            mask = np.zeros(powerlaw_graph.num_vertices, dtype=bool)
            mask[winners] = True
            assert not np.any(mask[u] & mask[v])

    def test_every_connected_vertex_colored_once(self, powerlaw_graph):
        _, rounds_log = GraphColoring(seed=1).color(powerlaw_graph)
        all_winners = np.concatenate(rounds_log)
        assert np.unique(all_winners).size == all_winners.size

    def test_max_rounds_enforced(self):
        from repro.errors import EngineError

        edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        g = DiGraph.from_edges(edges, num_vertices=8)
        with pytest.raises(EngineError, match="rounds"):
            GraphColoring(seed=1, max_rounds=2).color(g)

    def test_invalid_max_rounds(self):
        with pytest.raises(ValueError):
            GraphColoring(max_rounds=0)


class TestExecution:
    def test_trace_result(self, powerlaw_graph):
        part = RandomHashPartitioner(seed=2).partition(powerlaw_graph, 4)
        trace = GraphColoring(seed=1).execute(DistributedGraph(part))
        assert trace.result["num_colors"] == trace.result["colors"].max() + 1
        assert trace.num_supersteps == trace.result["rounds"]

    def test_distribution_invariance(self, powerlaw_graph):
        solo = PartitionResult(
            powerlaw_graph,
            np.zeros(powerlaw_graph.num_edges, np.int32),
            1,
            "single",
            None,
        )
        part = RandomHashPartitioner(seed=2).partition(powerlaw_graph, 4)
        a = GraphColoring(seed=1).execute(DistributedGraph(solo)).result
        b = GraphColoring(seed=1).execute(DistributedGraph(part)).result
        assert np.array_equal(a["colors"], b["colors"])

    def test_per_round_work_shrinks(self, powerlaw_graph):
        part = RandomHashPartitioner(seed=2).partition(powerlaw_graph, 2)
        trace = GraphColoring(seed=1).execute(DistributedGraph(part))
        per_round = [sum(p.work.flops for p in s.phases) for s in trace.supersteps]
        assert per_round[-1] < per_round[0]


@st.composite
def multigraphs(draw):
    """Small digraphs with self loops, parallel and reciprocal edges, and
    isolated vertices (some trailing, beyond every edge endpoint)."""
    n = draw(st.integers(1, 80))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    if edges:
        repeats = draw(
            st.lists(st.tuples(st.sampled_from(edges), st.booleans()), max_size=n)
        )
        edges += [(b, a) if flip else (a, b) for (a, b), flip in repeats]
    return DiGraph.from_edges(edges, num_vertices=n + draw(st.integers(0, 3)))


def outcome(color):
    try:
        return color()
    except EngineError:
        return EngineError


class TestCountdownMatchesPerRoundOracle:
    """The countdown loop reproduces the per-round rescan byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(
        graph=multigraphs(),
        seed=st.integers(0, 5),
        max_rounds=st.one_of(st.integers(1, 3), st.just(500)),
    )
    def test_same_colors_and_rounds(self, graph, seed, max_rounds):
        got = outcome(lambda: GraphColoring(seed, max_rounds).color(graph))
        want = outcome(lambda: reference_color(graph, seed, max_rounds))
        if want is EngineError or got is EngineError:
            assert got is want
            return
        (colors, rounds), (ref_colors, ref_rounds) = got, want
        assert colors.dtype == ref_colors.dtype
        assert np.array_equal(colors, ref_colors)
        assert len(rounds) == len(ref_rounds)
        for winners, ref_winners in zip(rounds, ref_rounds):
            assert winners.dtype == ref_winners.dtype
            assert np.array_equal(winners, ref_winners)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_powerlaw_matches(self, powerlaw_graph, seed):
        colors, rounds = GraphColoring(seed=seed).color(powerlaw_graph)
        ref_colors, ref_rounds = reference_color(powerlaw_graph, seed=seed)
        assert np.array_equal(colors, ref_colors)
        assert [w.tolist() for w in rounds] == [w.tolist() for w in ref_rounds]
