"""Unit tests for the binary (.npz) graph serialisation."""

import numpy as np
import pytest

from repro.errors import GraphError, GraphFormatError
from repro.graph.io import read_npz, write_npz


def test_roundtrip(tmp_path, powerlaw_graph):
    path = tmp_path / "g.npz"
    write_npz(powerlaw_graph, path)
    assert read_npz(path) == powerlaw_graph


def test_roundtrip_preserves_isolated_vertices(tmp_path):
    from repro.graph.digraph import DiGraph

    g = DiGraph.from_edges([(0, 1)], num_vertices=10)
    path = tmp_path / "g.npz"
    write_npz(g, path)
    assert read_npz(path).num_vertices == 10


def test_roundtrip_empty_graph(tmp_path):
    from repro.graph.digraph import DiGraph

    g = DiGraph(3, np.empty(0, np.int64), np.empty(0, np.int64))
    path = tmp_path / "g.npz"
    write_npz(g, path)
    back = read_npz(path)
    assert back.num_vertices == 3 and back.num_edges == 0


def test_foreign_archive_rejected(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, something=np.arange(3))
    with pytest.raises(GraphFormatError, match="not a repro graph archive"):
        read_npz(path)


def _written(tmp_path, powerlaw_graph) -> bytes:
    path = tmp_path / "g.npz"
    write_npz(powerlaw_graph, path)
    return path.read_bytes()


def test_truncated_archive_is_a_format_error(tmp_path, powerlaw_graph):
    path = tmp_path / "trunc.npz"
    data = _written(tmp_path, powerlaw_graph)
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(GraphFormatError, match="trunc.npz"):
        read_npz(path)


def test_garbage_file_is_a_format_error(tmp_path):
    # np.load reads unknown bytes as a pickle and refuses with ValueError.
    path = tmp_path / "garbage.npz"
    path.write_bytes(b"not an archive at all\n" * 8)
    with pytest.raises(GraphFormatError, match="garbage.npz"):
        read_npz(path)


def test_empty_file_is_a_format_error(tmp_path):
    path = tmp_path / "empty.npz"
    path.write_bytes(b"")
    with pytest.raises(GraphFormatError, match="empty.npz"):
        read_npz(path)


def test_non_scalar_vertex_count_is_a_format_error(tmp_path):
    path = tmp_path / "vector.npz"
    np.savez(path, num_vertices=np.array([3, 4]), src=np.array([0]),
             dst=np.array([1]))
    with pytest.raises(GraphFormatError, match="vector.npz"):
        read_npz(path)


def test_corrupt_member_is_a_format_error(tmp_path, powerlaw_graph):
    path = tmp_path / "corrupt.npz"
    data = bytearray(_written(tmp_path, powerlaw_graph))
    for i in range(60, 120):  # inside the first member's deflate stream
        data[i] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(GraphFormatError, match="corrupt.npz"):
        read_npz(path)


def test_vertex_count_past_the_bound_is_a_graph_error(tmp_path):
    path = tmp_path / "huge.npz"
    np.savez_compressed(
        path,
        num_vertices=np.int64(4_000_000_001),
        src=np.array([0], dtype=np.int64),
        dst=np.array([4_000_000_000], dtype=np.int64),
    )
    with pytest.raises(GraphError, match="at most 2147483648"):
        read_npz(path)


def test_missing_file_stays_an_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_npz(tmp_path / "absent.npz")
