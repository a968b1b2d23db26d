"""PageRank (Eq. 8 of the paper).

The PowerGraph formulation: ranks start at 1.0 and iterate

    PR(u) = (1 - d) + d * sum_{v in B_u} PR(v) / L(v)

until the largest per-vertex change falls below a tolerance.  (This is the
unnormalised fixed point — ranks sum to |V|; dividing by |V| recovers the
probability-normalised ranks of Eq. 8 when the graph has no dangling
vertices.)

Cost calibration (see DESIGN.md): PageRank is the *memory-bound* member of
the application suite — each gather reads a remote rank and an edge record
and does almost no arithmetic with them, so its bytes-per-flop ratio is
high.  That is what makes its speedup saturate on the biggest machines
(Fig. 2/8a), whose memory bandwidth grows far more slowly than their
thread count.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.engine.accounting import AppCostModel
from repro.engine.vertex_program import SyncVertexProgram
from repro.graph.digraph import DiGraph

__all__ = ["PageRank"]


class PageRank(SyncVertexProgram):
    """Synchronous PageRank vertex program.

    Parameters
    ----------
    damping:
        The damping factor ``d`` (Eq. 8); 0.85 is the classic value.
    tolerance:
        Convergence threshold on the largest per-vertex rank change
        (PowerGraph's default is 1e-2 on unnormalised ranks).
    max_supersteps:
        Iteration budget.
    """

    name = "pagerank"
    accumulator = "sum"
    undirected = False
    # messages() is values[s] / out_deg[s] per edge — pure elementwise, so
    # the engine may hoist it across machines.
    messages_elementwise = True

    cost = AppCostModel(
        flops_per_edge_op=3.0,
        stream_bytes_per_edge_op=14.0,
        cacheable_bytes_per_edge_op=6.0,
        flops_per_vertex_op=8.0,
        stream_bytes_per_vertex_op=16.0,
        serial_fraction=0.005,
        serial_flops_per_superstep=1e4,
        value_bytes=8,
        sync_rounds=2,
    )

    def __init__(
        self,
        damping: float = 0.85,
        tolerance: float = 1e-2,
        max_supersteps: int = 100,
    ):
        if not 0.0 < damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        if tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {tolerance}")
        self.damping = damping
        self.tolerance = tolerance
        self.max_supersteps = max_supersteps

    # ------------------------------------------------------------------ #

    def initial_values(self, graph: DiGraph) -> np.ndarray:
        return np.ones(graph.num_vertices, dtype=np.float64)

    def messages(
        self, graph: DiGraph, values: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        # Out-degrees are >= 1 for any vertex that appears as a source, so
        # the division is safe on the participating edges.
        return values[sources] / graph.out_degrees[sources]

    def messages_vertexwise(
        self, graph: DiGraph, values: np.ndarray
    ) -> np.ndarray:
        # Per-vertex form of messages(): rank/out-degree computed once per
        # vertex and gathered per edge.  The division per slot is the same
        # float64 operation either way, so the gathered array is
        # bit-identical to messages() on any source list.  Sinks (out
        # degree 0) never appear as sources; their slot is left at 0.
        out_deg = graph.out_degrees
        out = np.zeros_like(values)
        np.divide(values, out_deg, out=out, where=out_deg > 0)
        return out

    def apply(
        self,
        graph: DiGraph,
        values: np.ndarray,
        acc: np.ndarray,
        has_message: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        new_values = (1.0 - self.damping) + self.damping * acc
        delta = np.abs(new_values - values)
        if float(delta.max(initial=0.0)) > self.tolerance:
            active = np.ones(graph.num_vertices, dtype=bool)
        else:
            active = np.zeros(graph.num_vertices, dtype=bool)
        return new_values, active

    def finalize(self, graph: DiGraph, values: np.ndarray) -> dict:
        total = float(values.sum())
        return {
            "ranks": values,
            "normalized_ranks": values / total if total > 0 else values,
        }
