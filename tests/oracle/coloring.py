"""Per-round Jones–Plassmann loops: the references for ``GraphColoring``.

* :func:`reference_color` rescans all skeleton edges whose endpoints are
  both uncoloured every round, so its cost is rounds × |E|.  Production
  computes the same waves with a countdown in O(|E|) (DESIGN.md §11);
  the differential test in ``tests/test_apps_coloring.py`` compares the
  two element by element.
* :func:`reference_coloring_trace` replays those waves round by round,
  machine by machine, to build the execution trace.  Production builds
  it from suffix-summed histograms
  (``repro.kernels.accounting.coloring_trace``); the differential tests
  in ``tests/equivalence/`` compare the trace bytes.
"""

from __future__ import annotations

import numpy as np

from repro.apps.triangle_count import undirected_simple_edges
from repro.engine.trace import ExecutionTrace, MachinePhase, SuperstepTrace
from repro.errors import EngineError
from repro.graph.digraph import DiGraph
from repro.utils.rng import hash_to_unit, mix64
from tests.oracle.engine import reference_layout, reference_sync_bytes

__all__ = ["reference_color", "reference_coloring_trace"]


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


def reference_coloring_trace(app, dgraph):
    """``app.execute(dgraph)`` for a ``GraphColoring``, one wave at a time."""
    graph = dgraph.graph
    m = dgraph.num_machines
    colors, rounds_log = reference_color(graph, app.seed, app.max_rounds)
    _, local_src, local_dst = reference_layout(dgraph.partition)
    masters = [np.nonzero(dgraph.master == i)[0] for i in range(m)]

    trace = ExecutionTrace(app=app.name, num_machines=m)
    uncolored = np.ones(graph.num_vertices, dtype=bool)
    for winners in rounds_log:
        # Each still-uncoloured vertex scans its neighbourhood during the
        # round (to learn priorities and used colours), so a machine's
        # edge work is its local edges touching the uncoloured set at
        # round start.
        comm = reference_sync_bytes(dgraph, uncolored, app.cost.value_bytes)
        winner_mask = np.zeros(graph.num_vertices, dtype=bool)
        winner_mask[winners] = True
        phases = []
        for i in range(m):
            ls, ld = local_src[i], local_dst[i]
            if ls.size:
                edge_ops = float(np.count_nonzero(uncolored[ls] | uncolored[ld]))
            else:
                edge_ops = 0.0
            vertex_ops = float(np.count_nonzero(winner_mask[masters[i]]))
            work = app.cost.work(
                edge_ops=edge_ops,
                vertex_ops=vertex_ops,
                working_set_mb=float(dgraph.working_set_mb[i]),
            )
            phases.append(MachinePhase(work=work, comm_bytes=float(comm[i])))
        trace.append(
            SuperstepTrace(
                phases=phases, sync_rounds=app.cost.sync_rounds, label="wave"
            )
        )
        uncolored[winners] = False

    trace.result = {
        "colors": colors,
        "num_colors": int(colors.max(initial=0)) + 1,
        "rounds": len(rounds_log),
    }
    return trace
