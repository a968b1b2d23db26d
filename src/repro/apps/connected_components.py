"""Connected Components (weakly connected, as PowerGraph implements it).

Classic min-label propagation: every vertex starts with its own id as
label; labels flow across edges in both directions; a vertex adopts the
minimum label it sees and re-activates only when its label changed.  At
convergence two vertices share a label iff they are weakly connected, and
the number of distinct labels is the component count the application
reports.

Cost calibration: label propagation is the *balanced* member of the suite
— one comparison per byte-ish — so its machine scaling tracks thread
counts nearly linearly across the c4 family (Fig. 8a), with the frontier
shrinking superstep by superstep.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.engine.accounting import AppCostModel
from repro.engine.vertex_program import SyncVertexProgram
from repro.graph.digraph import DiGraph

__all__ = ["ConnectedComponents"]


class ConnectedComponents(SyncVertexProgram):
    """Frontier-based min-label propagation."""

    name = "connected_components"
    accumulator = "min"
    undirected = True
    max_supersteps = 500
    # messages() is values[s] per edge — pure elementwise, so the
    # engine may hoist it across machines.
    messages_elementwise = True

    cost = AppCostModel(
        flops_per_edge_op=8.0,
        stream_bytes_per_edge_op=4.0,
        cacheable_bytes_per_edge_op=3.0,
        flops_per_vertex_op=6.0,
        stream_bytes_per_vertex_op=12.0,
        serial_fraction=0.01,
        serial_flops_per_superstep=1e4,
        value_bytes=8,
        sync_rounds=2,
    )

    def initial_values(self, graph: DiGraph) -> np.ndarray:
        return np.arange(graph.num_vertices, dtype=np.float64)

    def messages(
        self, graph: DiGraph, values: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        return values[sources]

    def messages_vertexwise(
        self, graph: DiGraph, values: np.ndarray
    ) -> np.ndarray:
        # Per-vertex form of messages(): the label itself.
        return values

    def apply(
        self,
        graph: DiGraph,
        values: np.ndarray,
        acc: np.ndarray,
        has_message: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        new_values = np.where(has_message, np.minimum(values, acc), values)
        active = new_values < values
        return new_values, active

    def finalize(self, graph: DiGraph, values: np.ndarray) -> dict:
        labels = values.astype(np.int64)
        unique, sizes = np.unique(labels, return_counts=True)
        return {
            "labels": labels,
            "num_components": int(unique.size),
            "largest_component": int(sizes.max(initial=0)),
        }
