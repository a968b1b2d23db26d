"""Per-vertex Ginger refinement: the reference for ``GingerPartitioner``.

Production gathers each chunk's in-neighbours with one ``concat_ranges``
fancy-index and applies a chunk's moves as batched ``bincount`` updates
(DESIGN.md §11).  :class:`ReferenceGinger` keeps the literal loops — one
slice per chunk vertex, one move at a time — so the differential tests
can compare assignments byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.partition.ginger import GingerPartitioner
from repro.partition.hybrid import HybridPartitioner

__all__ = ["ReferenceGinger"]


class ReferenceGinger(GingerPartitioner):
    """``GingerPartitioner`` with the per-vertex concat and move loops.

    Named apart from ``"ginger"`` so its results never share an
    assignment-cache entry with production's.
    """

    name = "ginger_reference"

    def _assign(self, graph, num_machines, weights):
        m = num_machines
        hybrid = HybridPartitioner(seed=self.seed, threshold=self.threshold)
        assignment = hybrid._assign(graph, m, weights).copy()
        if graph.num_edges == 0:
            return assignment

        src, dst = graph.edges()
        in_deg = graph.in_degrees
        low_vertices = np.nonzero((in_deg > 0) & (in_deg <= self.threshold))[0]
        if low_vertices.size == 0:
            return assignment

        vertex_machine = np.full(graph.num_vertices, -1, dtype=np.int32)
        low_mask_edges = in_deg[dst] <= self.threshold
        vertex_machine[dst[low_mask_edges]] = assignment[low_mask_edges]
        in_indptr, in_nbrs, in_edge_ids = graph._in_csr

        vertex_count = np.bincount(
            vertex_machine[vertex_machine >= 0], minlength=m
        ).astype(np.float64)
        edge_count = np.bincount(assignment, minlength=m).astype(np.float64)
        avg_degree = max(1.0, graph.num_edges / graph.num_vertices)

        order = low_vertices
        chunk_size = max(32, min(self.chunk_size, order.size // 16))
        for start in range(0, order.size, chunk_size):
            chunk = order[start : start + chunk_size]
            degs = in_indptr[chunk + 1] - in_indptr[chunk]
            rows = np.repeat(np.arange(chunk.size), degs)
            flat_nbrs = np.concatenate(
                [in_nbrs[in_indptr[v] : in_indptr[v + 1]] for v in chunk]
            ) if chunk.size else np.empty(0, dtype=np.int64)
            nbr_mach = vertex_machine[flat_nbrs]
            co = np.zeros((chunk.size, m), dtype=np.float64)
            ok = nbr_mach >= 0
            np.add.at(co, (rows[ok], nbr_mach[ok]), 1.0)
            co /= np.maximum(degs, 1)[:, np.newaxis]

            occupancy = 0.5 * (vertex_count + edge_count / avg_degree)
            total_occ = max(1.0, occupancy.sum())
            norm_load = (occupancy / total_occ) / weights
            b = self.balance_lambda * norm_load**2
            choice = np.argmax(co - b[np.newaxis, :], axis=1).astype(np.int32)

            moved = choice != vertex_machine[chunk]
            for v, new in zip(chunk[moved], choice[moved]):
                lo, hi = in_indptr[v], in_indptr[v + 1]
                eids = in_edge_ids[lo:hi]
                old = vertex_machine[v]
                assignment[eids] = new
                vertex_machine[v] = new
                edge_count[old] -= eids.size
                edge_count[new] += eids.size
                vertex_count[old] -= 1
                vertex_count[new] += 1
        return assignment
