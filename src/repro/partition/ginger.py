"""(Heterogeneity-aware) Ginger partitioning (Section II-C.1).

Ginger is the heuristic refinement of Hybrid proposed in PowerLyra,
borrowing Fennel's streaming objective.  High-degree vertices are handled
exactly as in Hybrid (source-hash vertex cut).  Low-degree vertices are
*re-assigned* in a second round to the machine maximising (Eq. 2)

    score(v, i) = |N(v) ∩ V_i| - b(i)

i.e. co-locate ``v`` with its in-neighbours unless machine ``i`` is already
too full; the balance term ``b(i)`` counts both the vertices and the edges
resident on ``i`` (normalised by the machine's weight).

The paper's heterogeneity extension multiplies a factor ``1 / CCR_p`` into
the balance term, "such that a fast machine has a smaller factor to gain a
better score" — here the weight vector plays that role: dividing the load
by ``weights[i]`` makes a fast machine look emptier.

Re-assignment moves *all* in-edges of a low-degree vertex together (they
were grouped by phase 1), so low-degree vertices keep their no-mirror
property.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.graph.digraph import DiGraph
from repro.kernels.csr import concat_ranges
from repro.obs import context as obs
from repro.partition.base import Partitioner
from repro.partition.hybrid import DEFAULT_DEGREE_THRESHOLD, HybridPartitioner

__all__ = ["GingerPartitioner"]


class GingerPartitioner(Partitioner):
    """Fennel-style streaming refinement of Hybrid.

    Parameters
    ----------
    threshold:
        High-degree cutoff shared with Hybrid.
    balance_lambda:
        Strength of the balance term relative to the locality term.
    chunk_size:
        Low-degree vertices re-assigned per state refresh (streaming
        approximation, as in the Oblivious implementation).
    """

    name = "ginger"

    def __init__(
        self,
        seed: int = 0,
        threshold: int = DEFAULT_DEGREE_THRESHOLD,
        balance_lambda: float = 1.0,
        chunk_size: int = 2048,
    ):
        super().__init__(seed=seed)
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if balance_lambda < 0:
            raise ValueError("balance_lambda must be >= 0")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.threshold = threshold
        self.balance_lambda = balance_lambda
        self.chunk_size = chunk_size

    def _assign(
        self, graph: DiGraph, num_machines: int, weights: NDArray[np.float64]
    ) -> NDArray[np.int32]:
        m = num_machines
        # Start from Hybrid's assignment (phase 1 + high-degree phase 2).
        hybrid = HybridPartitioner(seed=self.seed, threshold=self.threshold)
        assignment = hybrid._assign(graph, m, weights).copy()
        if graph.num_edges == 0:
            return assignment

        src, dst = graph.edges()
        in_deg = graph.in_degrees
        low_vertices = np.nonzero((in_deg > 0) & (in_deg <= self.threshold))[0]
        if low_vertices.size == 0:
            return assignment

        # Low-degree vertex location == machine of its (grouped) in-edges.
        vertex_machine = np.full(graph.num_vertices, -1, dtype=np.int32)
        # All in-edges of a low vertex share one machine after phase 1;
        # take it from any one of them.
        low_mask_edges = in_deg[dst] <= self.threshold
        vertex_machine[dst[low_mask_edges]] = assignment[low_mask_edges]

        # In-CSR access for neighbour lookups.
        in_indptr, in_nbrs, in_edge_ids = graph._in_csr

        # Running totals for the balance term.
        vertex_count = np.bincount(
            vertex_machine[vertex_machine >= 0], minlength=m
        ).astype(np.float64)
        edge_count = np.bincount(assignment, minlength=m).astype(np.float64)
        avg_degree = max(1.0, graph.num_edges / graph.num_vertices)

        order = low_vertices  # canonical vertex order; deterministic
        # Adapt the refresh granularity to the stream length: with stale
        # balance state a whole chunk herds onto the currently-lightest
        # machine, so short streams need proportionally shorter chunks.
        chunk_size = max(32, min(self.chunk_size, order.size // 16))
        for start in range(0, order.size, chunk_size):
            chunk = order[start : start + chunk_size]
            chunk_span = obs.span(
                "partition/ginger/chunk",
                start=start,
                vertices=int(chunk.size),
            )
            # Per-(vertex, machine) in-neighbour co-location counts.
            degs = in_indptr[chunk + 1] - in_indptr[chunk]
            rows = np.repeat(np.arange(chunk.size), degs)
            flat_nbrs = in_nbrs[
                concat_ranges(in_indptr[chunk], in_indptr[chunk + 1])
            ]
            nbr_mach = vertex_machine[flat_nbrs]
            co = np.zeros((chunk.size, m), dtype=np.float64)
            ok = nbr_mach >= 0
            np.add.at(co, (rows[ok], nbr_mach[ok]), 1.0)
            # Normalise the locality gain to [0, 1] per vertex so the
            # balance penalty is commensurable for low- and high-in-degree
            # vertices alike.
            co /= np.maximum(degs, 1)[:, np.newaxis]

            # Balance term b(i): combined vertex/edge occupancy share over
            # the machine's target weight, penalised quadratically.
            occupancy = 0.5 * (vertex_count + edge_count / avg_degree)
            total_occ = max(1.0, occupancy.sum())
            norm_load = (occupancy / total_occ) / weights
            # Quadratic load penalty (Fennel uses a superlinear cost for
            # the same reason): a machine at its target share pays a flat
            # cost; an overloaded one quickly outweighs any locality gain,
            # which is itself normalised to [0, 1].
            b = self.balance_lambda * norm_load**2
            score = co - b[np.newaxis, :]
            choice = np.argmax(score, axis=1).astype(np.int32)

            # Move each chunk vertex (and its grouped in-edges) if improved.
            prev = vertex_machine[chunk]
            moved = choice != prev
            if np.any(moved):
                # Batched move application.  Chunk vertices are distinct and
                # their in-edge ranges disjoint, and all count updates are
                # integer-valued float64 (exact), so this reproduces the
                # per-vertex move loop (tests/oracle/ginger.py) bit for bit.
                mv = chunk[moved]
                new_mach = choice[moved]
                old_mach = vertex_machine[mv].astype(np.int64)
                starts, stops = in_indptr[mv], in_indptr[mv + 1]
                lens = (stops - starts).astype(np.float64)
                eids = in_edge_ids[concat_ranges(starts, stops)]
                assignment[eids] = np.repeat(new_mach, stops - starts)
                vertex_machine[mv] = new_mach
                edge_count -= np.bincount(old_mach, weights=lens, minlength=m)
                edge_count += np.bincount(new_mach, weights=lens, minlength=m)
                vertex_count -= np.bincount(old_mach, minlength=m)
                vertex_count += np.bincount(new_mach, minlength=m)
            if obs.is_enabled():
                chunk_span.set(moved=int(np.count_nonzero(moved)))
                obs.counter_add(
                    "partition.ginger_moved_vertices",
                    float(np.count_nonzero(moved)),
                )
            chunk_span.close()

        return assignment
