"""Graph Coloring (asynchronous greedy, Jones–Plassmann style).

PowerGraph colors directed graphs with an *asynchronous* engine: vertices
grab edge-consistent locks and greedily pick the smallest colour unused by
their neighbours.  The execution pattern that emerges — waves of vertices
that are local priority maxima colouring concurrently, conflicts resolved
in later waves — is the Jones–Plassmann schedule, which is what this
implementation runs explicitly:

* round ``r``: every uncoloured vertex that has the highest priority
  (degree, then hash) among its uncoloured neighbours picks the minimum
  colour excluded by its already-coloured neighbours;
* rounds repeat until no vertex is uncoloured.

The result is a valid proper colouring and the colour count the
application reports.

Cost calibration: the asynchronous engine's fine-grained locking
serialises a larger share of the work than the synchronous engines
(bigger ``serial_flops_per_superstep``) and issues many more small
messages (higher ``sync_rounds``) — the paper calls this out as the reason
Coloring benefits least from re-balancing (Section V-B.1).
"""

from __future__ import annotations

import numpy as np

from repro.engine.accounting import AppCostModel
from repro.engine.distributed_graph import DistributedGraph
from repro.engine.trace import ExecutionTrace
from repro.engine.vertex_program import GraphApplication
from repro.errors import EngineError
from repro.graph.digraph import DiGraph
from repro.apps.triangle_count import skeleton_degrees, undirected_simple_edges
from repro.kernels.accounting import coloring_trace
from repro.kernels.csr import concat_ranges, sorted_distinct
from repro.utils.rng import hash_to_unit, mix64

__all__ = ["GraphColoring"]


def _csr(rows, cols, n):
    """``(indptr, indices)`` of ``cols`` grouped by ``rows``.

    Order within a row is arbitrary (unstable sort): every consumer
    scatters, subtracts or sorts, none of which sees it.
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[np.argsort(rows)]


def _gather(indptr, indices, rows):
    """Rows ``rows`` of a CSR, concatenated, and each row's length."""
    starts, stops = indptr[rows], indptr[rows + 1]
    return indices[concat_ranges(starts, stops)], stops - starts


class GraphColoring(GraphApplication):
    """Asynchronous greedy colouring with priority waves.

    Parameters
    ----------
    seed:
        Priority tie-break hash stream.
    max_rounds:
        Safety bound; Jones–Plassmann terminates in O(log n) rounds with
        high probability on bounded-degree orderings.
    """

    name = "coloring"

    cost = AppCostModel(
        flops_per_edge_op=10.0,
        stream_bytes_per_edge_op=3.0,
        cacheable_bytes_per_edge_op=2.0,
        flops_per_vertex_op=10.0,
        stream_bytes_per_vertex_op=16.0,
        serial_fraction=0.008,
        serial_flops_per_superstep=2e4,
        value_bytes=8,
        sync_rounds=6,
    )

    def __init__(self, seed: int = 0, max_rounds: int = 500):
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        self.seed = seed
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------ #

    def color(self, graph: DiGraph):
        """Colour the undirected simple skeleton.

        Runs the Jones–Plassmann waves as a countdown (DESIGN.md §11):
        a vertex joins the wave after its last uncoloured higher-priority
        neighbour is coloured, so every skeleton edge is visited a
        constant number of times in total rather than once per round.

        Returns
        -------
        (colors, rounds_log)
            ``colors`` — int array, -1 never occurs on return;
            ``rounds_log`` — per-round int arrays of the vertex ids
            coloured in that wave, ascending (used for work accounting).
        """
        n = graph.num_vertices
        u, v = undirected_simple_edges(graph)
        deg = skeleton_degrees(graph)

        colors = np.full(n, -1, dtype=np.int64)
        # Isolated vertices trivially take colour 0.
        colors[deg == 0] = 0

        # Priority: degree first (hubs colour early, keeping the palette
        # small), hash tie-break for uniqueness.
        priority = deg.astype(np.float64) + hash_to_unit(
            mix64(np.arange(n, dtype=np.int64), seed=self.seed)
        )

        # Orient each edge from its lower- to its higher-priority end; a
        # tie makes ``v`` the lower end.
        u_lower = priority[u] < priority[v]
        lo = np.where(u_lower, u, v)
        hi = np.where(u_lower, v, u)
        up_ptr, up = _csr(lo, hi, n)  # higher-priority neighbours
        down_ptr, down = _csr(hi, lo, n)  # lower-priority neighbours
        # A vertex's uncoloured higher-priority neighbours; it is a
        # priority maximum among the uncoloured exactly when this is 0.
        pending = np.diff(up_ptr)

        uncolored = colors < 0
        winners = np.nonzero(uncolored & (pending == 0))[0]
        remaining = int(np.count_nonzero(uncolored))
        rounds_log = []
        max_color = 0
        for _ in range(self.max_rounds):
            if remaining == 0:
                break
            if winners.size == 0:
                raise EngineError(
                    "colouring wave stalled: no priority maxima found"
                )

            # Minimum excluded colour per winner.  Its coloured neighbours
            # are exactly its higher-priority ones.
            highs, counts = _gather(up_ptr, up, winners)
            used = np.zeros((winners.size, max_color + 2), dtype=bool)
            used[np.repeat(np.arange(winners.size), counts), colors[highs]] = True
            mex = np.argmin(used, axis=1)  # first False column
            colors[winners] = mex
            max_color = max(max_color, int(mex.max(initial=0)))
            rounds_log.append(winners)
            remaining -= winners.size

            # Count down the winners' lower-priority neighbours; those
            # reaching 0 form the next wave, in ascending vertex order.
            lows, _ = _gather(down_ptr, down, winners)
            np.subtract.at(pending, lows, 1)
            winners = sorted_distinct(lows[pending[lows] == 0])

        if remaining:
            raise EngineError(
                f"colouring did not finish within {self.max_rounds} rounds"
            )
        return colors, rounds_log

    # ------------------------------------------------------------------ #

    def execute(self, dgraph: DistributedGraph) -> ExecutionTrace:
        # Memoised colouring + histogram accounting over its waves (see
        # repro.kernels.accounting.coloring_trace).
        return coloring_trace(self, dgraph)
