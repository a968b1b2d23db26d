"""Unit tests for repro.streaming.mutations (ops, batches, streams)."""

import json

import numpy as np
import pytest

from repro.errors import StreamError, StreamFormatError
from repro.graph.digraph import DiGraph
from repro.streaming import (
    STREAM_FORMAT_VERSION,
    AddEdge,
    AddVertices,
    MutationBatch,
    MutationStream,
    RemoveEdge,
    RemoveVertex,
    ReviveVertex,
    apply_batch,
)


def edge_multiset(graph):
    src, dst = graph.edges()
    return sorted(zip(src.tolist(), dst.tolist()))


class TestOpValidation:
    def test_add_vertices_rejects_zero(self):
        with pytest.raises(StreamError):
            AddVertices(0)

    def test_remove_vertex_rejects_negative(self):
        with pytest.raises(StreamError):
            RemoveVertex(-1)

    def test_revive_vertex_rejects_negative(self):
        with pytest.raises(StreamError):
            ReviveVertex(-3)

    def test_edge_ops_reject_negative_endpoints(self):
        with pytest.raises(StreamError):
            AddEdge(-1, 0)
        with pytest.raises(StreamError):
            RemoveEdge(0, -2)

    @pytest.mark.parametrize("count", [1.5, True, "2", None])
    def test_add_vertices_rejects_non_integer_count(self, count):
        with pytest.raises(StreamFormatError, match="add_vertices count"):
            AddVertices(count)

    @pytest.mark.parametrize("op", [RemoveVertex, ReviveVertex])
    @pytest.mark.parametrize("vertex", [True, 0.0, "1"])
    def test_vertex_ops_reject_non_integer_vertex(self, op, vertex):
        with pytest.raises(StreamFormatError, match="vertex must be an integer"):
            op(vertex)

    @pytest.mark.parametrize("op", [AddEdge, RemoveEdge])
    @pytest.mark.parametrize("src, dst", [(0.5, 1), (0, False), (1, "2")])
    def test_edge_ops_reject_non_integer_endpoints(self, op, src, dst):
        with pytest.raises(StreamFormatError, match="must be an integer"):
            op(src, dst)

    def test_numpy_integers_accepted(self):
        assert AddEdge(np.int64(1), np.int32(2)).dst == 2
        assert AddVertices(np.int64(3)).count == 3

    def test_non_integer_op_in_json_is_a_format_error(self):
        with pytest.raises(StreamFormatError, match="add_vertices count"):
            MutationStream.from_jsonable({
                "format_version": STREAM_FORMAT_VERSION,
                "batches": [[{"op": "add_vertices", "count": 1.5}]],
            })


class TestApplyBatch:
    def test_add_edge_appends_in_canonical_order(self, tiny_graph):
        result = apply_batch(
            tiny_graph, MutationBatch((AddEdge(4, 0), AddEdge(1, 3)))
        )
        assert result.graph.num_edges == tiny_graph.num_edges + 2
        src, dst = result.graph.edges()
        assert (int(src[-2]), int(dst[-2])) == (4, 0)
        assert (int(src[-1]), int(dst[-1])) == (1, 3)
        # Surviving edges keep their relative order and origins.
        assert result.edge_origin[: tiny_graph.num_edges].tolist() == list(
            range(tiny_graph.num_edges)
        )
        assert result.edge_origin[-2:].tolist() == [-1, -1]

    def test_remove_edge_drops_last_copy_only(self, tiny_graph):
        # tiny_graph holds (0, 1) twice: indices 0 and 6.
        result = apply_batch(tiny_graph, MutationBatch((RemoveEdge(0, 1),)))
        assert result.graph.num_edges == tiny_graph.num_edges - 1
        assert 6 not in result.edge_origin.tolist()
        assert 0 in result.edge_origin.tolist()

    def test_remove_missing_edge_rejected(self, tiny_graph):
        with pytest.raises(StreamError, match="no such edge"):
            apply_batch(tiny_graph, MutationBatch((RemoveEdge(4, 4),)))

    def test_remove_vertex_tombstones_and_strips_edges(self, tiny_graph):
        result = apply_batch(tiny_graph, MutationBatch((RemoveVertex(0),)))
        assert result.graph.num_vertices == tiny_graph.num_vertices
        assert not result.live[0]
        src, dst = result.graph.edges()
        assert 0 not in src.tolist() and 0 not in dst.tolist()

    def test_dead_vertex_rejects_new_edges(self, tiny_graph):
        with pytest.raises(StreamError, match="unknown vertex 0"):
            apply_batch(
                tiny_graph,
                MutationBatch((RemoveVertex(0), AddEdge(0, 1))),
            )

    def test_add_vertices_appends_live_ids(self, tiny_graph):
        result = apply_batch(
            tiny_graph, MutationBatch((AddVertices(2), AddEdge(6, 1)))
        )
        assert result.graph.num_vertices == 7
        assert result.live[5] and result.live[6]
        assert result.num_live == 7

    def test_revive_requires_dead_vertex(self, tiny_graph):
        with pytest.raises(StreamError, match="is live"):
            apply_batch(tiny_graph, MutationBatch((ReviveVertex(2),)))

    def test_ops_see_earlier_ops_in_same_batch(self, tiny_graph):
        result = apply_batch(
            tiny_graph,
            MutationBatch(
                (RemoveVertex(3), ReviveVertex(3), AddEdge(3, 4))
            ),
        )
        assert result.live[3]
        assert (3, 4) in edge_multiset(result.graph)
        # 3's original incident edges died with the tombstone.
        assert (2, 3) not in edge_multiset(result.graph)

    def test_touched_covers_endpoints(self, tiny_graph):
        result = apply_batch(
            tiny_graph, MutationBatch((AddEdge(4, 1), RemoveEdge(2, 3)))
        )
        assert set(result.touched) >= {1, 2, 3, 4}

    def test_bad_live_mask_shape_rejected(self, tiny_graph):
        with pytest.raises(StreamError, match="shape"):
            apply_batch(
                tiny_graph,
                MutationBatch(),
                live=np.ones(3, dtype=bool),
            )


class TestInversion:
    def test_inverse_restores_edges_and_liveness(self, tiny_graph):
        batch = MutationBatch(
            (
                AddEdge(4, 0),
                RemoveVertex(0),
                AddVertices(1),
                AddEdge(5, 4),
                RemoveEdge(5, 4),
            )
        )
        result = apply_batch(tiny_graph, batch)
        restored = apply_batch(result.graph, result.inverse, live=result.live)
        assert edge_multiset(restored.graph) == edge_multiset(tiny_graph)
        # Original ids all live again; appended id stays a dead tombstone.
        assert restored.live[: tiny_graph.num_vertices].all()
        assert not restored.live[5]

    def test_remove_vertex_inverse_restores_incident_edges(self, tiny_graph):
        result = apply_batch(tiny_graph, MutationBatch((RemoveVertex(0),)))
        restored = apply_batch(result.graph, result.inverse, live=result.live)
        assert edge_multiset(restored.graph) == edge_multiset(tiny_graph)
        assert restored.live.all()


class TestValidateFor:
    def test_unknown_vertex_names_batch(self):
        stream = MutationStream(
            batches=(
                MutationBatch((AddEdge(0, 1),)),
                MutationBatch((RemoveVertex(99),)),
            )
        )
        with pytest.raises(StreamError, match=r"batch 1: remove_vertex"):
            stream.validate_for(5)

    def test_liveness_tracked_across_batches(self):
        stream = MutationStream(
            batches=(
                MutationBatch((RemoveVertex(1),)),
                MutationBatch((AddEdge(0, 1),)),
            )
        )
        with pytest.raises(StreamError, match="batch 1"):
            stream.validate_for(4)

    def test_added_ids_become_valid(self):
        stream = MutationStream(
            batches=(
                MutationBatch((AddVertices(2),)),
                MutationBatch((AddEdge(4, 5),)),
            )
        )
        stream.validate_for(4)  # ids 4 and 5 exist after batch 0

    def test_base_vertices_mismatch_rejected(self):
        stream = MutationStream(base_vertices=100)
        with pytest.raises(StreamError, match="100 vertices"):
            stream.validate_for(50)


class TestJsonFormat:
    def stream(self):
        return MutationStream(
            batches=(
                MutationBatch((AddVertices(1), AddEdge(0, 5))),
                MutationBatch((RemoveEdge(0, 5), RemoveVertex(5))),
            ),
            base_vertices=5,
            seed=3,
        )

    def test_round_trip_preserves_stream(self):
        stream = self.stream()
        assert MutationStream.from_json(stream.to_json()) == stream

    def test_fingerprint_is_content_stable(self):
        assert self.stream().fingerprint() == self.stream().fingerprint()
        other = MutationStream(
            batches=(MutationBatch((AddEdge(0, 1),)),), base_vertices=5
        )
        assert other.fingerprint() != self.stream().fingerprint()

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "stream.json")
        self.stream().save(path)
        assert MutationStream.load(path) == self.stream()

    def test_unsupported_version_rejected(self):
        payload = self.stream().to_jsonable()
        payload["format_version"] = STREAM_FORMAT_VERSION + 1
        with pytest.raises(StreamFormatError, match="not supported"):
            MutationStream.from_jsonable(payload)

    def test_unknown_op_rejected(self):
        payload = self.stream().to_jsonable()
        payload["batches"][0][0] = {"op": "teleport_vertex", "vertex": 1}
        with pytest.raises(StreamFormatError, match="teleport_vertex"):
            MutationStream.from_jsonable(payload)

    @pytest.mark.parametrize("tag", [["x"], {"op": "add_edge"}, 7, None])
    def test_non_string_op_tag_rejected(self, tag):
        payload = self.stream().to_jsonable()
        payload["batches"][0][0] = {"op": tag, "vertex": 1}
        with pytest.raises(StreamFormatError, match="unknown mutation op"):
            MutationStream.from_json(json.dumps(payload))

    def test_malformed_op_fields_rejected(self):
        payload = self.stream().to_jsonable()
        payload["batches"][0][0] = {"op": "add_edge", "src": 1}
        with pytest.raises(StreamFormatError, match="malformed add_edge"):
            MutationStream.from_jsonable(payload)

    def test_non_object_payload_rejected(self):
        with pytest.raises(StreamFormatError, match="object"):
            MutationStream.from_json(json.dumps([1, 2]))

    def test_invalid_json_rejected(self):
        with pytest.raises(StreamFormatError, match="malformed"):
            MutationStream.from_json("{nope")

    @pytest.mark.parametrize("field", ["base_vertices", "seed"])
    @pytest.mark.parametrize("bad", ["x", 1.5, True, [1]])
    def test_non_integer_header_field_rejected(self, field, bad):
        payload = self.stream().to_jsonable()
        payload[field] = bad
        with pytest.raises(StreamFormatError, match=field):
            MutationStream.from_jsonable(payload)
        with pytest.raises(StreamFormatError, match=field):
            MutationStream(**{field: bad})

    def test_null_and_numpy_header_fields_accepted(self):
        payload = self.stream().to_jsonable()
        payload["base_vertices"] = payload["seed"] = None
        stream = MutationStream.from_jsonable(payload)
        assert stream.base_vertices is None and stream.seed is None
        assert MutationStream(base_vertices=np.int64(5)).base_vertices == 5


class TestReplay:
    def test_replay_chains_liveness(self, tiny_graph):
        stream = MutationStream(
            batches=(
                MutationBatch((RemoveVertex(0),)),
                MutationBatch((ReviveVertex(0), AddEdge(0, 2))),
            )
        )
        results = list(stream.replay(tiny_graph))
        assert len(results) == 2
        assert not results[0].live[0]
        assert results[1].live[0]
        assert (0, 2) in edge_multiset(results[1].graph)

    def test_describe_lists_every_op(self):
        stream = MutationStream(
            batches=(
                MutationBatch((AddVertices(2), AddEdge(1, 2))),
                MutationBatch((RemoveEdge(1, 2),)),
            )
        )
        rows = list(stream.describe())
        assert len(rows) == stream.num_ops
        assert rows[0] == (0, "add_vertices", "+2 vertices")
        assert rows[2] == (1, "remove_edge", "1 -> 2")
