"""Unit tests for repro.graph.io (edge-list serialisation)."""

import tracemalloc

import pytest

from repro.errors import GraphError, GraphFormatError
from repro.graph.io import read_edge_list, write_edge_list


def test_roundtrip(tmp_path, tiny_graph):
    path = tmp_path / "g.txt"
    write_edge_list(tiny_graph, path)
    back = read_edge_list(path, num_vertices=tiny_graph.num_vertices)
    assert back == tiny_graph


def test_header_comments_skipped(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# header\n# Nodes: 2 Edges: 1\n0\t1\n")
    g = read_edge_list(path)
    assert g.num_edges == 1


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n\n1 2\n")
    assert read_edge_list(path).num_edges == 2


def test_whitespace_flexible(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0   1\n1\t2\n")
    assert read_edge_list(path).num_edges == 2


def test_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n0 1 2\n")
    with pytest.raises(GraphFormatError, match=":2:"):
        read_edge_list(path)


def test_non_integer_endpoint(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("a b\n")
    with pytest.raises(GraphFormatError, match="non-integer"):
        read_edge_list(path)


@pytest.mark.parametrize(
    "line", ["0 9223372036854775808", "-9223372036854775809 0"]
)
def test_endpoint_outside_int64(tmp_path, line):
    path = tmp_path / "g.txt"
    path.write_text(f"0 1\n{line}\n")
    with pytest.raises(GraphFormatError, match=r":2: endpoint outside int64"):
        read_edge_list(path)


def test_vertex_id_past_the_bound_fails_before_allocating(tmp_path):
    # Inferred from the largest id: 4e9 + 1 vertices, past MAX_VERTICES.
    # The error comes before any vertex-length array exists.
    path = tmp_path / "g.txt"
    path.write_text("0 4000000000\n")
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="at most 2147483648"):
            read_edge_list(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cleanup_options(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 0\n0 1\n0 1\n")
    g = read_edge_list(path, drop_self_loops=True, deduplicate=True)
    assert g.num_edges == 1


def test_write_without_header(tmp_path, ring_graph):
    path = tmp_path / "g.txt"
    write_edge_list(ring_graph, path, header=False)
    content = path.read_text()
    assert not content.startswith("#")
    assert len(content.strip().splitlines()) == ring_graph.num_edges


def test_write_header_counts(tmp_path, ring_graph):
    path = tmp_path / "g.txt"
    write_edge_list(ring_graph, path)
    header = path.read_text().splitlines()[1]
    assert "Nodes: 8" in header and "Edges: 8" in header
