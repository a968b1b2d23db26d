"""Compact adjacency structures and order-preserving sort kernels.

Everything here is *exact*: each function documents why its output is
bit-identical to the reference construction it replaces (kept under
``tests/oracle/``), which is the equivalence contract of DESIGN.md §11.

:class:`MachineEdgeView` is the only edge storage a
:class:`~repro.engine.distributed_graph.DistributedGraph` keeps: two
machine-sorted endpoint arrays plus ``m + 1`` slice bounds (for one
machine, the graph's own arrays).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Tuple

import numpy as np
from numpy.typing import NDArray

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.graph.digraph import DiGraph

__all__ = [
    "CSRAdjacency",
    "MachineEdgeView",
    "concat_ranges",
    "sorted_distinct",
    "stable_argsort",
    "stable_machine_order",
]

_INT64_MAX = int(np.iinfo(np.int64).max)

#: Above this machine count the per-bucket counting sort loses to argsort.
_COUNTING_SORT_MAX_MACHINES = 64


def stable_argsort(keys: NDArray[np.integer[Any]], bound: int) -> NDArray[np.int64]:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    Every composite ``keys[i] * len + i`` is distinct and orders by key,
    then by position, so the default (unstable) sort of the composites is
    exactly the stable order, recovered as ``composite % len``: about 5x
    faster than numpy's stable int64 sort (a merge sort) on 284k keys.
    When ``bound * len`` would overflow int64 the stable sort runs instead.
    """
    size = int(keys.size)
    if size == 0:
        return np.empty(0, dtype=np.int64)
    if int(bound) * size > _INT64_MAX:
        return np.argsort(keys, kind="stable").astype(np.int64, copy=False)
    composite = keys.astype(np.int64)
    composite *= size
    composite += np.arange(size, dtype=np.int64)
    composite.sort()
    composite %= size
    return composite


def sorted_distinct(values: NDArray[np.int64]) -> NDArray[np.int64]:
    """The distinct entries of ``values``, ascending; sorts ``values`` in place.

    Equal to ``np.unique(values)``: the first entry of each run of the
    sorted array.  ``np.unique`` imports ``numpy.ma`` on first use, about
    15 ms of a cold process on a 2-vCPU VM.
    """
    values.sort()
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def stable_machine_order(
    assignment: NDArray[np.int32], num_machines: int
) -> Tuple[NDArray[np.int64], NDArray[np.int64]]:
    """Stable sort of edge ids by machine, plus per-machine counts.

    Produces exactly ``np.argsort(assignment, kind="stable")``: for each
    machine in ascending order, ``np.nonzero`` yields that machine's edge
    ids in ascending (i.e. original, canonical) order — the definition of
    a stable sort grouped by key.  A counting pass over ``m`` small
    buckets beats the general radix argsort for the handful of machines a
    cluster has.
    """
    counts = np.bincount(assignment, minlength=num_machines).astype(
        np.int64, copy=False
    )
    if assignment.size == 0:
        return np.empty(0, dtype=np.int64), counts
    if num_machines > _COUNTING_SORT_MAX_MACHINES:
        return stable_argsort(assignment, num_machines), counts
    order = np.concatenate(
        [np.nonzero(assignment == machine)[0] for machine in range(num_machines)]
    ).astype(np.int64, copy=False)
    return order, counts


def concat_ranges(
    starts: NDArray[np.int64], stops: NDArray[np.int64]
) -> NDArray[np.int64]:
    """Concatenate ``arange(starts[k], stops[k])`` for all k, vectorised.

    Equivalent to ``np.concatenate([np.arange(a, b) for a, b in
    zip(starts, stops)])`` — the index pattern for gathering many CSR
    slices at once — without the per-range Python loop.
    """
    lens = (stops - starts).astype(np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    out = np.repeat(starts - offsets, lens)
    out += np.arange(total, dtype=np.int64)
    return out


@dataclass(frozen=True)
class CSRAdjacency:
    """Compressed sparse row adjacency with canonical edge-id backtracking.

    ``indices[indptr[v]:indptr[v+1]]`` are vertex ``v``'s neighbours (with
    multiplicity) and ``edge_ids`` maps each slot back to the canonical
    edge order, so the structure is a lossless, deterministic permutation
    of the input edge list — the round-trip property the hypothesis tests
    exercise.
    """

    num_vertices: int
    indptr: NDArray[np.int64]
    indices: NDArray[np.int64]
    edge_ids: NDArray[np.int64]

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        src: NDArray[np.int64],
        dst: NDArray[np.int64],
    ) -> "CSRAdjacency":
        """Build from parallel endpoint arrays (canonical edge order).

        The stable sort keeps slots of equal source in canonical edge
        order, so the construction is deterministic: permuting the input
        edges and sorting back by ``edge_ids`` recovers the same CSR.
        """
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        order = stable_argsort(src, num_vertices)
        # ``add.at`` reads a frozen ``src`` in place; ``bincount`` would
        # copy it whole first.
        degrees = np.zeros(num_vertices, dtype=np.int64)
        np.add.at(degrees, src, 1)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        return cls(
            num_vertices=int(num_vertices),
            indptr=indptr,
            indices=dst[order],
            edge_ids=order,
        )

    @classmethod
    def from_graph(cls, graph: "DiGraph") -> "CSRAdjacency":
        src, dst = graph.edges()
        return cls.from_edges(graph.num_vertices, src, dst)

    @property
    def num_edges(self) -> int:
        return int(self.indices.size)

    def neighbors(self, vertex: int) -> NDArray[np.int64]:
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def degrees(self) -> NDArray[np.int64]:
        return (self.indptr[1:] - self.indptr[:-1]).astype(np.int64)

    def to_edges(self) -> Tuple[NDArray[np.int64], NDArray[np.int64]]:
        """Invert the construction: ``(src, dst)`` in canonical edge order."""
        row_of_slot = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.degrees()
        )
        src = np.empty(self.num_edges, dtype=np.int64)
        dst = np.empty(self.num_edges, dtype=np.int64)
        src[self.edge_ids] = row_of_slot
        dst[self.edge_ids] = self.indices
        return src, dst


@dataclass(frozen=True)
class MachineEdgeView:
    """All machines' local edges as flat machine-sorted arrays.

    ``src[bounds[i]:bounds[i+1]]`` equals ``dgraph.local_src[i]`` (same
    order), so per-machine reductions become contiguous-slice operations
    and global elementwise work (message computation) runs once instead of
    once per machine.  ``bounds`` is the only per-machine index: a
    per-edge machine id would cost a third edge-length array per cached
    layout, and every reader bins by slice instead.
    """

    src: NDArray[np.int64]
    dst: NDArray[np.int64]
    bounds: NDArray[np.int64]
