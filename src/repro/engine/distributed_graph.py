"""Distributed (partitioned) graph with masters and mirrors.

PowerGraph's vertex-cut data layout: every edge lives on exactly one
machine; a vertex has a replica on every machine holding one of its edges.
One replica is the *master* (owns the authoritative value), the rest are
*mirrors*; gather results flow mirror→master, applied values flow
master→mirror at every superstep.

The :class:`DistributedGraph` precomputes everything the engines need,
and nothing more (it is cached and shared across runs):

* per-machine local edge arrays (in canonical order) — zero-copy slices
  of one flat machine-sorted :class:`~repro.kernels.csr.MachineEdgeView`,
  the layout's only edge-length storage (a one-machine layout, the
  profiling case, views the graph's own arrays and stores none);
  per-machine canonical edge ids are recomputed on demand
  (:attr:`DistributedGraph.edge_ids`),
* the vertex presence matrix and master assignment,
* per-machine hot working sets (adjacency of hub vertices, which drives
  the cache term of the performance model).
"""

from __future__ import annotations

from functools import cached_property
from typing import List

import numpy as np

from repro.errors import EngineError
from repro.graph.digraph import DiGraph
from repro.kernels.accounting import sync_bytes_vectorized
from repro.kernels.csr import MachineEdgeView, stable_machine_order
from repro.partition.base import PartitionResult
from repro.utils.rng import mix64

__all__ = ["DistributedGraph"]

# Bytes per stored edge (two 8-byte endpoints) — used for working sets.
_EDGE_BYTES = 16
# Fraction of the highest-degree vertices considered "hubs" whose adjacency
# forms the cache-resident hot set.  0.1 % of a power-law graph's vertices
# still covers a substantial share of edges; at paper scale their adjacency
# is tens of MB — the regime where only the largest machines' LLCs fit it.
_HUB_FRACTION = 0.001
# Hash stream for master selection among replicas (PowerGraph picks
# arbitrarily; a fixed seeded hash keeps runs reproducible).
_MASTER_SEED = 7


class DistributedGraph:
    """A graph partitioned across machines, with replica bookkeeping.

    Parameters
    ----------
    partition:
        The edge-to-machine assignment to materialise.
    """

    def __init__(self, partition: PartitionResult):
        self.partition = partition
        self.graph: DiGraph = partition.graph
        self.num_machines = partition.num_machines

        assignment = partition.assignment
        src, dst = self.graph.edges()

        # Per-machine edge views (canonical order preserved within machine).
        # One machine holds every edge in canonical order, so its view is
        # the graph's own read-only arrays: the layout stores no edges.
        # Otherwise a counting sort over the few machine buckets gives
        # provably the same permutation as the stable argsort (see
        # kernels.csr).  Gather the endpoints once over the whole
        # machine-sorted order and slice per machine: the slices are
        # zero-copy views holding exactly the bytes the per-machine
        # fancy-index would produce.  The permutation itself is dropped,
        # so the layout keeps two edge-length arrays.
        if self.num_machines == 1:
            bounds = np.array([0, src.size], dtype=np.int64)
            self.edge_view = MachineEdgeView(src=src, dst=dst, bounds=bounds)
        else:
            order, counts = stable_machine_order(assignment, self.num_machines)
            bounds = np.zeros(self.num_machines + 1, dtype=np.int64)
            np.cumsum(counts, out=bounds[1:])
            self.edge_view = MachineEdgeView(
                src=src[order], dst=dst[order], bounds=bounds
            )
        self.local_src = [
            self.edge_view.src[bounds[m] : bounds[m + 1]]
            for m in range(self.num_machines)
        ]
        self.local_dst = [
            self.edge_view.dst[bounds[m] : bounds[m + 1]]
            for m in range(self.num_machines)
        ]

        # Presence matrix: vertex v has a replica on machine m.
        presence = np.zeros((self.graph.num_vertices, self.num_machines), dtype=bool)
        presence[src, assignment] = True
        presence[dst, assignment] = True
        self.presence = presence

        # Master selection: the hash-chosen replica.
        copies = presence.sum(axis=1).astype(np.int64)
        self.replica_counts = copies
        master = np.full(self.graph.num_vertices, -1, dtype=np.int32)
        connected = copies > 0
        if np.any(connected):
            ids = np.nonzero(connected)[0]
            rank = (
                mix64(ids, seed=_MASTER_SEED) % copies[ids].astype(np.uint64)
            ).astype(np.int64)
            cum = np.cumsum(presence[ids], axis=1)
            master[ids] = np.argmax(cum > rank[:, np.newaxis], axis=1)
        self.master = master

    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def edge_ids(self) -> List[np.ndarray]:
        """Canonical ids of each machine's local edges, in local order.

        Recomputed from the assignment on every access rather than stored:
        no engine path reads it, and holding the permutation would cost
        every cached layout an edge-length int64 array.
        """
        order, counts = stable_machine_order(
            self.partition.assignment, self.num_machines
        )
        bounds = np.concatenate([[0], np.cumsum(counts)])
        return [order[bounds[m] : bounds[m + 1]] for m in range(self.num_machines)]

    def local_edge_count(self, machine: int) -> int:
        self._check_machine(machine)
        return int(self.local_src[machine].size)

    def masters_on(self, machine: int) -> np.ndarray:
        """Vertex ids mastered by ``machine``."""
        self._check_machine(machine)
        return np.nonzero(self.master == machine)[0]

    def mirror_count(self, machine: int) -> int:
        """Replicas on ``machine`` that are not masters."""
        self._check_machine(machine)
        return int(
            np.count_nonzero(self.presence[:, machine] & (self.master != machine))
        )

    @cached_property
    def replication_factor(self) -> float:
        """Average replicas per connected vertex."""
        connected = self.replica_counts > 0
        if not np.any(connected):
            return 0.0
        return float(self.replica_counts[connected].mean())

    # ------------------------------------------------------------------ #
    # Working sets (cache model input)
    # ------------------------------------------------------------------ #

    @cached_property
    def _hub_mask(self) -> np.ndarray:
        """Global hub vertices: the top ``_HUB_FRACTION`` by total degree."""
        degrees = self.graph.degrees
        n_hubs = max(1, int(self.graph.num_vertices * _HUB_FRACTION))
        if degrees.size == 0:
            return np.zeros(0, dtype=bool)
        threshold = np.partition(degrees, -n_hubs)[-n_hubs]
        return degrees >= max(1, threshold)

    @cached_property
    def working_set_mb(self) -> np.ndarray:
        """Per-machine hot working set in MB.

        The hot set is the adjacency storage of hub vertices local to the
        machine: power-law hubs touch a large share of the edges, and
        applications that re-read neighbour lists (Triangle Count) hit this
        set repeatedly.  Being a property of the *actual graph structure*,
        it differs between a real graph and an alpha-matched proxy — the
        source of the residual CCR estimation error the paper reports.
        """
        hubs = self._hub_mask
        out = np.zeros(self.num_machines, dtype=np.float64)
        for m in range(self.num_machines):
            ls, ld = self.local_src[m], self.local_dst[m]
            if ls.size:
                hot_edges = np.count_nonzero(hubs[ls] | hubs[ld])
                out[m] = hot_edges * _EDGE_BYTES / 1e6
        return out

    # ------------------------------------------------------------------ #
    # Mirror synchronisation traffic
    # ------------------------------------------------------------------ #

    def sync_bytes(self, active: np.ndarray, value_bytes: int) -> np.ndarray:
        """Per-machine mirror-sync traffic for one superstep, in bytes.

        For every *active, replicated* vertex, each mirror sends its gather
        partial to the master and receives the applied value back.  Links
        are full duplex, so a machine's cost is governed by the larger of
        its send and receive volumes — symmetric here, hence one
        ``value_bytes`` payload per leg: its mirror legs (talking to remote
        masters) plus its master legs (one per remote mirror of each local
        master).

        Parameters
        ----------
        active:
            Boolean mask over vertices participating in the superstep.
        value_bytes:
            Payload per message.
        """
        if active.shape != (self.graph.num_vertices,):
            raise EngineError(
                f"active mask must have shape ({self.graph.num_vertices},), "
                f"got {active.shape}"
            )
        return sync_bytes_vectorized(self, active, value_bytes)

    def _check_machine(self, machine: int) -> None:
        if not 0 <= machine < self.num_machines:
            raise EngineError(
                f"machine {machine} out of range [0, {self.num_machines})"
            )

    def __repr__(self) -> str:
        return (
            f"DistributedGraph(machines={self.num_machines}, "
            f"vertices={self.num_vertices}, edges={self.graph.num_edges}, "
            f"replication={self.replication_factor:.2f})"
        )
