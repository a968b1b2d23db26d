"""Differential: the sort-based simple skeleton vs the ``np.unique`` form."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.triangle_count import undirected_simple_edges
from repro.graph.digraph import DiGraph
from repro.powerlaw.generator import generate_power_law_graph
from tests.oracle.skeleton import reference_simple_edges


def _assert_same(graph):
    ours = undirected_simple_edges(graph)
    ref = reference_simple_edges(graph)
    for a, b in zip(ours, ref):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 30))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80
    ))
    return DiGraph.from_edges(pairs, num_vertices=n)


@settings(max_examples=200, deadline=None)
@given(graph=graphs())
def test_matches_np_unique_form(graph):
    """Self loops, parallel and reciprocal edges, isolated vertices."""
    _assert_same(graph)


def test_matches_on_a_power_law_graph():
    _assert_same(generate_power_law_graph(num_vertices=2000, alpha=2.0, seed=4))


def test_edgeless_graph():
    empty = np.empty(0, dtype=np.int64)
    _assert_same(DiGraph(4, empty, empty))
