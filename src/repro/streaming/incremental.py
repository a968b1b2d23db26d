"""Incremental re-partitioning: repair placements instead of rebuilding.

A full re-partition after every mutation batch re-places *every* edge —
O(|E|) placement work per batch, and for history-sensitive strategies
(Oblivious, Ginger, Hybrid near its degree threshold) it can also migrate
a large fraction of edges that did not need to move, which on a real
cluster means shuffling their adjacency state across the network.

:class:`IncrementalPartitioner` instead carries placements across
batches.  Per batch it computes the **affected region** — the vertices a
batch touched, boundary-expanded ``halo`` hops over the mutated graph —
then:

* edges that survived the batch with both endpoints *outside* the region
  keep their machine (via :attr:`ApplyResult.edge_origin`);
* inserted edges and edges incident to the region are re-placed by the
  wrapped base strategy, run on just that sub-edge-set under the epoch-0
  target weights.

The update is a pure function of (base config, halo, epoch-0 weights,
batch history), so replaying the stream from scratch reproduces every
per-batch assignment byte-for-byte — the contract the differential churn
harness pins.  A larger halo re-places more edges and tracks a full
re-partition more closely; ``halo=0`` repairs only the touched vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.errors import StreamError
from repro.graph.digraph import DiGraph
from repro.obs import context as obs
from repro.partition.base import Partitioner, PartitionResult
from repro.partition.metrics import weighted_imbalance
from repro.streaming.mutations import ApplyResult

__all__ = ["RepairStats", "StreamUpdate", "IncrementalPartitioner"]


@dataclass(frozen=True)
class RepairStats:
    """The four counts of one repair: what an epoch keeps of its update.

    A live epoch takes them from its :class:`StreamUpdate`, a restored
    one from its checkpointed record; both serialize them under these
    field names.
    """

    affected_vertices: int
    reassigned_edges: int
    carried_edges: int
    moved_edges: int


@dataclass(frozen=True)
class StreamUpdate:
    """What one incremental update did (per-batch obs/report record).

    Attributes
    ----------
    batch_index:
        0-based index of the applied batch.
    result:
        The repaired partition of the mutated graph.
    affected_vertices:
        Size of the halo-expanded affected region.
    reassigned_edges:
        Edges re-placed by the base strategy this batch (the placement
        work a full re-partition would spend on *every* edge).
    carried_edges:
        Surviving edges that kept their machine without being re-placed.
    moved_edges:
        Surviving edges whose machine changed — the migration volume a
        real cluster would shuffle over the network.
    imbalance:
        :func:`~repro.partition.metrics.weighted_imbalance` after repair.
    """

    batch_index: int
    result: PartitionResult
    affected_vertices: int
    reassigned_edges: int
    carried_edges: int
    moved_edges: int
    imbalance: float

    @property
    def stats(self) -> RepairStats:
        """The repair counts without the repaired partition."""
        return RepairStats(
            affected_vertices=self.affected_vertices,
            reassigned_edges=self.reassigned_edges,
            carried_edges=self.carried_edges,
            moved_edges=self.moved_edges,
        )


class IncrementalPartitioner:
    """Stateful wrapper repairing one strategy's assignment under churn."""

    def __init__(self, base: Partitioner, halo: int = 1):
        if halo < 0:
            raise StreamError(f"halo must be >= 0, got {halo}")
        self.base = base
        self.halo = int(halo)
        self._result: Optional[PartitionResult] = None
        self._applied = 0

    @property
    def name(self) -> str:
        return f"incremental[{self.base.name}]"

    @property
    def result(self) -> PartitionResult:
        """Current assignment (after the last ``start``/``apply``)."""
        if self._result is None:
            raise StreamError("start() must be called before reading the result")
        return self._result

    @property
    def batches_applied(self) -> int:
        return self._applied

    def start(
        self,
        graph: DiGraph,
        num_machines: int,
        weights: Optional[ArrayLike] = None,
    ) -> PartitionResult:
        """Partition the base graph from scratch (epoch 0)."""
        self._result = self.base.partition(graph, num_machines, weights=weights)
        self._applied = 0
        return self._result

    def restore(self, result: PartitionResult, batches_applied: int) -> None:
        """Adopt a previously produced assignment (checkpoint resume).

        ``result`` must be the partitioner's own output for the graph as
        it stood after ``batches_applied`` batches — the recovery path
        rebuilds it from a :class:`~repro.streaming.recovery.
        StreamCheckpoint` after structurally replaying the consumed
        batches.  Subsequent :meth:`apply` calls continue exactly as if
        the original instance had never been lost.
        """
        if batches_applied < 0:
            raise StreamError(
                f"batches_applied must be >= 0, got {batches_applied}"
            )
        self._result = result
        self._applied = int(batches_applied)

    def apply(self, delta: ApplyResult) -> StreamUpdate:
        """Repair the assignment for one applied mutation batch.

        ``delta`` is the :func:`~repro.streaming.mutations.apply_batch`
        result for the batch (new graph + edge-origin map + touched set).
        The re-placed edges keep the previous epoch's target weights.
        """
        prev = self._result
        if prev is None:
            raise StreamError("start() must be called before apply()")
        graph = delta.graph
        origin = delta.edge_origin
        if origin.shape != (graph.num_edges,):
            raise StreamError(
                f"edge_origin has shape {origin.shape}, expected "
                f"({graph.num_edges},)"
            )
        w = prev.weights
        with obs.span(
            "stream/incremental",
            algorithm=self.base.name,
            batch=self._applied,
            halo=self.halo,
            edges=graph.num_edges,
        ) as span:
            affected = self._affected_region(graph, delta.touched)
            src, dst = graph.edges()
            if graph.num_edges:
                carried = (origin >= 0) & ~affected[src] & ~affected[dst]
            else:
                carried = np.zeros(0, dtype=bool)
            assignment = np.empty(graph.num_edges, dtype=np.int32)
            assignment[carried] = prev.assignment[origin[carried]]
            reassign = np.nonzero(~carried)[0]
            if reassign.size:
                sub = DiGraph(graph.num_vertices, src[reassign], dst[reassign])
                placed = self.base.partition(sub, prev.num_machines, weights=w)
                assignment[reassign] = placed.assignment
            result = PartitionResult(
                graph=graph,
                assignment=assignment,
                num_machines=prev.num_machines,
                algorithm=prev.algorithm,
                weights=w,
            )
            surviving = np.nonzero(origin >= 0)[0]
            moved = int(
                np.count_nonzero(
                    result.assignment[surviving]
                    != prev.assignment[origin[surviving]]
                )
            )
            update = StreamUpdate(
                batch_index=self._applied,
                result=result,
                affected_vertices=int(np.count_nonzero(affected)),
                reassigned_edges=int(reassign.size),
                carried_edges=int(np.count_nonzero(carried)),
                moved_edges=moved,
                imbalance=weighted_imbalance(result),
            )
            if obs.is_enabled():
                obs.counter_add(
                    "stream.reassigned_edges",
                    float(update.reassigned_edges),
                    algorithm=self.base.name,
                )
                obs.counter_add(
                    "stream.moved_edges",
                    float(update.moved_edges),
                    algorithm=self.base.name,
                )
                obs.gauge_set(
                    "stream.imbalance",
                    update.imbalance,
                    algorithm=self.base.name,
                )
                span.set(
                    affected_vertices=update.affected_vertices,
                    reassigned_edges=update.reassigned_edges,
                    moved_edges=update.moved_edges,
                    imbalance=update.imbalance,
                )
        self._result = result
        self._applied += 1
        return update

    def _affected_region(
        self, graph: DiGraph, touched: Tuple[int, ...]
    ) -> NDArray[np.bool_]:
        """Touched vertices expanded ``halo`` hops over (in+out) adjacency."""
        mask = np.zeros(graph.num_vertices, dtype=bool)
        if touched:
            ids = np.asarray(touched, dtype=np.int64)
            mask[ids[ids < graph.num_vertices]] = True
        if not graph.num_edges:
            return mask
        src, dst = graph.edges()
        frontier = mask.copy()
        for _ in range(self.halo):
            on_edge = frontier[src] | frontier[dst]
            reached = np.zeros_like(mask)
            reached[src[on_edge]] = True
            reached[dst[on_edge]] = True
            fresh = reached & ~mask
            if not fresh.any():
                break
            mask |= fresh
            frontier = fresh
        return mask

    def __repr__(self) -> str:
        return (
            f"IncrementalPartitioner(base={self.base!r}, halo={self.halo})"
        )
