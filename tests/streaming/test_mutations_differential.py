"""``apply_batch`` against its full-scan reference, result by result.

Production indexes the pre-batch edges that a batch's removals can reach
once per batch; ``tests/oracle/mutations.py`` keeps the per-op scan of
the whole edge list it replaced.  For any graph, liveness mask and batch
the two must return the same graph arrays, ``live``, ``edge_origin``,
``touched`` and ``inverse`` — or raise ``StreamError`` with the same
text.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StreamError
from repro.graph.digraph import DiGraph
from repro.streaming.mutations import (
    AddEdge,
    AddVertices,
    MutationBatch,
    RemoveEdge,
    RemoveVertex,
    ReviveVertex,
    apply_batch,
)
from tests.oracle.mutations import reference_apply_batch


def _outcome(fn, graph, batch, live):
    try:
        return fn(graph, batch, live=live)
    except StreamError as exc:
        return str(exc)


def assert_same(graph, batch, live=None):
    """Both implementations agree on ``batch``; return the production result."""
    got = _outcome(apply_batch, graph, batch, live)
    want = _outcome(reference_apply_batch, graph, batch, live)
    if isinstance(want, str):
        assert got == want
        return got
    assert not isinstance(got, str), got
    assert got.graph.num_vertices == want.graph.num_vertices
    for name in ("src", "dst"):
        a, b = getattr(got.graph, name), getattr(want.graph, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for name in ("live", "edge_origin"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not a.flags.writeable
    assert got.touched == want.touched
    assert got.inverse == want.inverse
    return got


# ---------------------------------------------------------------------- #
# Random graphs and batches
# ---------------------------------------------------------------------- #

#: Ids run a little past the graph so unknown and appended ids occur.
_SLACK = 3


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    ends = st.integers(0, n - 1)
    # Few vertices and many edges: self loops and parallel edges are common.
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=24))
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    live = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    return DiGraph(n, src, dst), live


@st.composite
def batches(draw, n):
    ids = st.integers(0, n + _SLACK)
    op = st.one_of(
        st.builds(AddVertices, st.integers(1, 2)),
        st.builds(RemoveVertex, ids),
        st.builds(ReviveVertex, ids),
        st.builds(AddEdge, ids, ids),
        st.builds(RemoveEdge, ids, ids),
        st.builds(RemoveEdge, ids, ids),
    )
    return draw(st.lists(op, max_size=12))


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_matches_reference_on_random_batches(data):
    graph, live = data.draw(graphs())
    ops = data.draw(batches(graph.num_vertices))
    assert_same(graph, MutationBatch(tuple(ops)), live)
    # The longest prefix the reference accepts, so that most examples
    # also compare a successful application.
    for k in range(len(ops), 0, -1):
        batch = MutationBatch(tuple(ops[:k]))
        if not isinstance(_outcome(reference_apply_batch, graph, batch, live), str):
            assert not isinstance(assert_same(graph, batch, live), str)
            break


# ---------------------------------------------------------------------- #
# Named cases
# ---------------------------------------------------------------------- #

#: 0->1 twice (parallel), 1->2, 2->2 (self loop), 2->0, 3->1.
_BASE = DiGraph(
    4,
    np.array([0, 0, 1, 2, 2, 3], dtype=np.int64),
    np.array([1, 1, 2, 2, 0, 1], dtype=np.int64),
)

CASES = {
    "add_then_remove_edge": [AddEdge(0, 2), RemoveEdge(0, 2)],
    "add_parallel_then_remove_twice": [AddEdge(0, 1), RemoveEdge(0, 1), RemoveEdge(0, 1)],
    "remove_both_parallel_copies": [RemoveEdge(0, 1), RemoveEdge(0, 1)],
    "remove_parallel_copy_too_many": [RemoveEdge(0, 1)] * 3,
    "remove_then_revive": [RemoveVertex(2), ReviveVertex(2), AddEdge(2, 2)],
    "remove_revive_remove": [RemoveVertex(1), ReviveVertex(1), AddEdge(0, 1), RemoveVertex(1)],
    "remove_vertex_added_in_batch": [AddVertices(2), AddEdge(4, 0), AddEdge(5, 4), RemoveVertex(4)],
    "remove_self_loop_vertex": [RemoveVertex(2)],
    "remove_self_loop_edge": [RemoveEdge(2, 2), RemoveEdge(2, 2)],
    "remove_edge_of_removed_vertex": [RemoveVertex(3), RemoveEdge(3, 1)],
    "remove_edge_unknown_vertex": [RemoveEdge(9, 0)],
    "remove_vertex_twice": [RemoveVertex(0), RemoveVertex(0)],
    "revive_live_vertex": [ReviveVertex(1)],
    "add_edge_to_dead_vertex": [RemoveVertex(0), AddEdge(1, 0)],
    "remove_every_vertex": [RemoveVertex(v) for v in range(4)],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_reference_on_named_case(name):
    assert_same(_BASE, MutationBatch(tuple(CASES[name])))


def test_named_cases_cover_success_and_error():
    outcomes = [
        isinstance(_outcome(apply_batch, _BASE, MutationBatch(tuple(ops)), None), str)
        for ops in CASES.values()
    ]
    assert any(outcomes) and not all(outcomes)


def test_matches_reference_with_tombstones():
    live = np.array([True, False, True, True])
    batch = MutationBatch((ReviveVertex(1), RemoveVertex(2), RemoveEdge(0, 1)))
    assert_same(_BASE, batch, live)
