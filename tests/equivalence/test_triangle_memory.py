"""Triangle Count's memory discipline, measured with tracemalloc.

``count_triangles`` keeps one full-length array, the sorted oriented keys
``a * n + c``, and expands wedges one row block at a time.  On a graph
the size of the largest default profiling proxy its peak stays within a
few skeleton-length int64 arrays above what the memoised skeleton and
degrees already hold; keeping the oriented endpoints, heads and tails as
separate full-length arrays as well costs over eight.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.apps.triangle_count import (
    TriangleCount,
    skeleton_degrees,
    undirected_simple_edges,
)
from repro.powerlaw.generator import generate_power_law_graph

#: Peak allowance, in skeleton-length int64 arrays above the base.
MAX_ARRAYS = 5


@pytest.fixture(scope="module")
def proxy_sized_graph():
    return generate_power_law_graph(num_vertices=40_000, alpha=1.95, seed=100)


def test_peak_stays_within_five_skeleton_arrays(proxy_sized_graph):
    graph = proxy_sized_graph
    u, _ = undirected_simple_edges(graph)
    skeleton_degrees(graph)  # memoised inputs belong to the base
    app = TriangleCount()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        total = app.count_triangles(graph)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert total > 0
    arrays = peak / (u.size * 8)
    assert arrays <= MAX_ARRAYS, f"peak is {arrays:.2f} skeleton-length arrays"


@pytest.mark.parametrize("row_block", [7, 97, 4096, 1 << 20])
def test_total_does_not_depend_on_row_block(proxy_sized_graph, row_block):
    expected = TriangleCount().count_triangles(proxy_sized_graph)
    assert TriangleCount(row_block=row_block).count_triangles(proxy_sized_graph) == expected
