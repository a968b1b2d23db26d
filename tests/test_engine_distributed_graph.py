"""Unit tests for repro.engine.distributed_graph (masters/mirrors)."""

import dataclasses

import numpy as np
import pytest

from repro.apps.registry import DEFAULT_APPS, make_app
from repro.engine.distributed_graph import DistributedGraph
from repro.errors import EngineError
from repro.graph.digraph import DiGraph
from repro.partition import RandomHashPartitioner
from repro.partition.base import PartitionResult


def manual(graph, assignment, m):
    return DistributedGraph(
        PartitionResult(graph, np.asarray(assignment, np.int32), m, "manual", None)
    )


@pytest.fixture
def dgraph(powerlaw_graph):
    part = RandomHashPartitioner(seed=1).partition(powerlaw_graph, 4)
    return DistributedGraph(part)


class TestLocalEdges:
    def test_partition_of_edges(self, dgraph, powerlaw_graph):
        total = sum(dgraph.local_edge_count(i) for i in range(4))
        assert total == powerlaw_graph.num_edges

    def test_local_arrays_match_assignment(self, dgraph):
        for m in range(4):
            ids = dgraph.edge_ids[m]
            assert np.all(dgraph.partition.assignment[ids] == m)
            assert np.array_equal(
                dgraph.local_src[m], dgraph.graph.src[ids]
            )


def _owned_buffers(dgraph):
    """Distinct array buffers reachable from the layout's own attributes.

    The partition and the graph are the layout's inputs, shared with the
    caller, so the walk does not enter them.  Views count as the array
    that owns their memory.
    """
    stack = [v for k, v in vars(dgraph).items() if k not in ("partition", "graph")]
    seen, owners = set(), {}
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif dataclasses.is_dataclass(obj):
            stack.extend(vars(obj).values())
    return list(owners.values())


class TestLayoutMemory:
    def test_only_the_view_endpoints_are_edge_length(self, dgraph):
        """After every app has run on it, a layout holds two edge-length
        arrays: the machine-sorted ``src`` and ``dst`` of its view."""
        for name in DEFAULT_APPS:
            make_app(name).execute(dgraph)
        num_edges = dgraph.graph.num_edges
        assert num_edges not in (dgraph.num_vertices, 4)
        edge_length = [
            a for a in _owned_buffers(dgraph) if a.ndim and a.shape[0] == num_edges
        ]
        view = dgraph.edge_view
        assert sorted(map(id, edge_length)) == sorted([id(view.src), id(view.dst)])

    def test_edge_ids_are_recomputed_not_stored(self, dgraph):
        assert "edge_ids" not in vars(dgraph)
        first, again = dgraph.edge_ids, dgraph.edge_ids
        assert [a.tobytes() for a in first] == [b.tobytes() for b in again]


class TestPresenceAndMasters:
    def test_presence_iff_incident_edge(self):
        g = DiGraph.from_edges([(0, 1), (2, 3)], num_vertices=5)
        dg = manual(g, [0, 1], 2)
        assert dg.presence[0].tolist() == [True, False]
        assert dg.presence[3].tolist() == [False, True]
        assert dg.presence[4].tolist() == [False, False]

    def test_master_is_a_replica(self, dgraph):
        connected = dgraph.replica_counts > 0
        ids = np.nonzero(connected)[0]
        masters = dgraph.master[ids]
        assert np.all(dgraph.presence[ids, masters])

    def test_isolated_vertex_has_no_master(self):
        g = DiGraph.from_edges([(0, 1)], num_vertices=3)
        dg = manual(g, [0], 2)
        assert dg.master[2] == -1

    def test_masters_partition_connected_vertices(self, dgraph):
        count = sum(dgraph.masters_on(i).size for i in range(4))
        assert count == int(np.count_nonzero(dgraph.replica_counts > 0))

    def test_master_deterministic(self, powerlaw_graph):
        part = RandomHashPartitioner(seed=1).partition(powerlaw_graph, 4)
        a = DistributedGraph(part)
        b = DistributedGraph(part)
        assert np.array_equal(a.master, b.master)

    def test_mirror_count(self):
        g = DiGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        dg = manual(g, [0, 1], 2)
        # vertex 1 is on both machines; exactly one machine hosts its mirror.
        assert dg.mirror_count(0) + dg.mirror_count(1) == 1


class TestReplication:
    def test_single_machine_factor_one(self, powerlaw_graph):
        dg = manual(powerlaw_graph, np.zeros(powerlaw_graph.num_edges), 1)
        assert dg.replication_factor == pytest.approx(1.0)

    def test_matches_partition_metric(self, dgraph):
        from repro.partition.metrics import replication_factor

        assert dgraph.replication_factor == pytest.approx(
            replication_factor(dgraph.partition)
        )


class TestWorkingSet:
    def test_nonnegative_per_machine(self, dgraph):
        assert np.all(dgraph.working_set_mb >= 0)

    def test_empty_machine_zero(self):
        g = DiGraph.from_edges([(0, 1)], num_vertices=2)
        dg = manual(g, [0], 2)
        assert dg.working_set_mb[1] == 0.0

    def test_single_machine_holds_whole_hot_set(self, powerlaw_graph):
        whole = manual(powerlaw_graph, np.zeros(powerlaw_graph.num_edges), 1)
        assert whole.working_set_mb[0] > 0


class TestSyncBytes:
    def test_no_replicated_vertices_no_traffic(self):
        g = DiGraph.from_edges([(0, 1), (2, 3)], num_vertices=4)
        dg = manual(g, [0, 1], 2)
        active = np.ones(4, dtype=bool)
        assert np.all(dg.sync_bytes(active, 8) == 0)

    def test_shared_vertex_generates_symmetric_traffic(self):
        g = DiGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        dg = manual(g, [0, 1], 2)
        active = np.ones(3, dtype=bool)
        traffic = dg.sync_bytes(active, value_bytes=8)
        # one replicated vertex: one mirror leg + one master leg, 8 B each.
        assert traffic.sum() == pytest.approx(16.0)
        assert traffic[0] == traffic[1]

    def test_inactive_vertices_excluded(self):
        g = DiGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        dg = manual(g, [0, 1], 2)
        active = np.zeros(3, dtype=bool)
        assert dg.sync_bytes(active, 8).sum() == 0.0

    def test_scales_with_value_bytes(self, dgraph):
        active = np.ones(dgraph.num_vertices, dtype=bool)
        a = dgraph.sync_bytes(active, 8).sum()
        b = dgraph.sync_bytes(active, 16).sum()
        assert b == pytest.approx(2 * a)

    def test_wrong_mask_shape(self, dgraph):
        with pytest.raises(EngineError):
            dgraph.sync_bytes(np.ones(3, dtype=bool), 8)


def test_machine_range_checks(dgraph):
    with pytest.raises(EngineError):
        dgraph.masters_on(7)
    with pytest.raises(EngineError):
        dgraph.local_edge_count(-1)
