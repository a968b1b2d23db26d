"""Per-round Jones–Plassmann loop: the reference for ``GraphColoring.color``.

Every round rescans all skeleton edges whose endpoints are both
uncoloured, so its cost is rounds × |E|.  Production computes the same
waves with a countdown in O(|E|) (DESIGN.md §11); this module keeps the
literal loop so the differential test in ``tests/test_apps_coloring.py``
can compare the two element by element.
"""

from __future__ import annotations

import numpy as np

from repro.apps.triangle_count import undirected_simple_edges
from repro.errors import EngineError
from repro.graph.digraph import DiGraph
from repro.utils.rng import hash_to_unit, mix64

__all__ = ["reference_color"]


def reference_color(graph: DiGraph, seed: int = 0, max_rounds: int = 500):
    """``(colors, rounds_log)`` exactly as ``GraphColoring(seed, max_rounds)``."""
    n = graph.num_vertices
    u, v = undirected_simple_edges(graph)
    deg = (np.bincount(u, minlength=n) + np.bincount(v, minlength=n)).astype(
        np.int64
    )

    colors = np.full(n, -1, dtype=np.int64)
    # Isolated vertices trivially take colour 0.
    colors[deg == 0] = 0

    # Priority: degree first (hubs colour early, keeping the palette
    # small), hash tie-break for uniqueness.
    priority = deg.astype(np.float64) + hash_to_unit(
        mix64(np.arange(n, dtype=np.int64), seed=seed)
    )

    rounds_log = []
    max_color = 0
    for _ in range(max_rounds):
        uncolored = colors < 0
        if not np.any(uncolored):
            break
        # Edges whose endpoints are both uncoloured suppress the lower
        # priority side from this wave.
        is_max = uncolored.copy()
        both = uncolored[u] & uncolored[v]
        bu, bv = u[both], v[both]
        u_lower = priority[bu] < priority[bv]
        is_max[bu[u_lower]] = False
        is_max[bv[~u_lower]] = False

        winners = np.nonzero(is_max)[0]
        if winners.size == 0:
            raise EngineError(
                "colouring wave stalled: no priority maxima found"
            )

        # Minimum excluded colour per winner, over coloured neighbours.
        width = max_color + 2
        used = np.zeros((winners.size, width), dtype=bool)
        widx = np.full(n, -1, dtype=np.int64)
        widx[winners] = np.arange(winners.size)
        for a, b in ((u, v), (v, u)):
            sel = (widx[a] >= 0) & (colors[b] >= 0)
            used[widx[a[sel]], colors[b[sel]]] = True
        mex = np.argmin(used, axis=1)  # first False column
        colors[winners] = mex
        max_color = max(max_color, int(mex.max(initial=0)))
        rounds_log.append(winners)

    if np.any(colors < 0):
        raise EngineError(
            f"colouring did not finish within {max_rounds} rounds"
        )
    return colors, rounds_log
