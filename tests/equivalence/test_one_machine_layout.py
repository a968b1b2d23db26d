"""A one-machine layout views the graph's own edge arrays.

Profiling runs every proxy as one partition.  Its ``DistributedGraph``
keeps the graph's read-only ``src``/``dst`` as the machine view instead
of gathering a machine-sorted copy, which for one machine is the same
order.  These tests pin that it is a view, and that it equals the general
(stable-argsort) construction of ``tests/oracle/engine.py`` byte for
byte, down to the replica bookkeeping.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.distributed_graph import DistributedGraph
from repro.graph.digraph import DiGraph
from repro.partition.base import PartitionResult
from repro.powerlaw.generator import generate_power_law_graph
from tests.oracle.engine import reference_layout


def _single(graph):
    return PartitionResult(
        graph=graph,
        assignment=np.zeros(graph.num_edges, dtype=np.int32),
        num_machines=1,
        algorithm="single",
        weights=np.array([1.0]),
    )


def _assert_view_of_graph(graph):
    partition = _single(graph)
    dgraph = DistributedGraph(partition)
    view = dgraph.edge_view
    src, dst = graph.edges()

    assert view.src is src and view.dst is dst
    assert not view.src.flags.writeable and not view.dst.flags.writeable
    assert view.bounds.tolist() == [0, graph.num_edges]
    assert view.bounds.dtype == np.int64
    if graph.num_edges:
        assert np.shares_memory(dgraph.local_src[0], src)
        assert np.shares_memory(dgraph.local_dst[0], dst)

    edge_ids, local_src, local_dst = reference_layout(partition)
    for ours, ref in ((dgraph.local_src, local_src), (dgraph.local_dst, local_dst)):
        assert ours[0].dtype == ref[0].dtype
        assert ours[0].tobytes() == ref[0].tobytes()
    assert np.array_equal(dgraph.edge_ids[0], edge_ids[0])

    # No vertex is replicated on one machine: every connected vertex is
    # mastered there and no sync traffic flows.
    connected = dgraph.replica_counts > 0
    assert np.array_equal(dgraph.presence[:, 0], connected)
    assert np.all(dgraph.master[connected] == 0)
    assert np.all(dgraph.master[~connected] == -1)
    active = np.ones(graph.num_vertices, dtype=bool)
    assert dgraph.sync_bytes(active, 8).tolist() == [0.0]


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 30))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80
    ))
    return DiGraph.from_edges(pairs, num_vertices=n)


@settings(max_examples=100, deadline=None)
@given(graph=graphs())
def test_view_equals_general_construction(graph):
    _assert_view_of_graph(graph)


def test_power_law_graph():
    _assert_view_of_graph(
        generate_power_law_graph(num_vertices=2000, alpha=2.0, seed=4)
    )


@pytest.mark.parametrize("num_vertices", [0, 3])
def test_empty_graph(num_vertices):
    empty = np.empty(0, dtype=np.int64)
    _assert_view_of_graph(DiGraph(num_vertices, empty, empty))


def test_two_machines_still_gather_a_copy():
    graph = generate_power_law_graph(num_vertices=300, alpha=2.0, seed=4)
    assignment = (np.arange(graph.num_edges) % 2).astype(np.int32)
    dgraph = DistributedGraph(
        PartitionResult(graph, assignment, 2, "alternate", np.array([1.0, 1.0]))
    )
    assert not np.shares_memory(dgraph.edge_view.src, graph.src)
    _, local_src, local_dst = reference_layout(dgraph.partition)
    for m in range(2):
        assert dgraph.local_src[m].tobytes() == local_src[m].tobytes()
        assert dgraph.local_dst[m].tobytes() == local_dst[m].tobytes()
