"""Immutable CSR-backed directed graph.

The design follows the needs of a distributed graph engine rather than a
general graph library:

* Edges are the unit of distribution (PowerGraph uses *vertex cuts*: edges
  are assigned to machines, vertices are replicated).  The canonical storage
  is therefore a pair of parallel arrays ``(src, dst)`` in a stable order —
  partitioners return an array of machine ids aligned with this order.
* Traversal structures (out-CSR / in-CSR) are derived lazily and cached;
  they are only needed by analytics and the single-machine reference
  implementations of the applications.
* The structure is immutable: every downstream component (partitioners,
  engine, profiler) may share one instance freely.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Tuple

import numpy as np

from repro.errors import GraphError

__all__ = ["DiGraph", "MAX_VERTICES"]

#: The most vertices a graph may have.  Every kernel sizes arrays by the
#: vertex count, so an edge list naming vertex 4,000,000,000 would
#: otherwise ask for gigabytes before anything reads the edges; and
#: ``deduplicate``'s key ``src * n + dst`` stays below ``2**62``, inside
#: int64, for any ``n`` up to this bound.
MAX_VERTICES = 2**31


def _count_endpoints(ends: np.ndarray, num_vertices: int) -> np.ndarray:
    """Read-only count of each vertex's occurrences in ``ends``.

    ``np.add.at`` reads the frozen endpoint array in place, where
    ``np.bincount`` would copy all of it first.
    """
    counts = np.zeros(num_vertices, dtype=np.int64)
    np.add.at(counts, ends, 1)
    counts.setflags(write=False)
    return counts


class DiGraph:
    """A directed graph over vertices ``0 .. num_vertices - 1``.

    Parameters
    ----------
    num_vertices:
        Number of vertices, at most :data:`MAX_VERTICES`.  Vertex ids
        are dense integers; isolated vertices (ids with no incident
        edge) are allowed.
    src, dst:
        Parallel int64 arrays of edge endpoints.  Parallel edges are
        allowed (natural graphs contain them before deduplication); self
        loops are allowed unless the caller strips them (the paper's
        generator optionally omits them).

    Notes
    -----
    The edge order given at construction is preserved and is the contract
    between the graph and every partitioner: a partitioning is an array
    ``assignment`` with ``assignment[e]`` the machine of edge ``e``.
    """

    __slots__ = ("_num_vertices", "_src", "_dst", "__dict__")

    def __init__(self, num_vertices: int, src: np.ndarray, dst: np.ndarray):
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
        if num_vertices > MAX_VERTICES:
            raise GraphError(
                f"num_vertices must be at most {MAX_VERTICES}, got {num_vertices}"
            )
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if src.ndim != 1 or dst.ndim != 1:
            raise GraphError("src and dst must be one-dimensional arrays")
        if src.shape != dst.shape:
            raise GraphError(
                f"src and dst must have equal length, got {src.size} vs {dst.size}"
            )
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= num_vertices:
                raise GraphError(
                    f"edge endpoints must lie in [0, {num_vertices}), "
                    f"found range [{lo}, {hi}]"
                )
        self._num_vertices = int(num_vertices)
        self._src = src
        self._dst = dst
        # Writable views would let callers corrupt the cached CSR structures.
        self._src.setflags(write=False)
        self._dst.setflags(write=False)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of directed edges (counting multiplicities)."""
        return int(self._src.size)

    @property
    def src(self) -> np.ndarray:
        """Read-only source-endpoint array, aligned with :attr:`dst`."""
        return self._src

    @property
    def dst(self) -> np.ndarray:
        """Read-only destination-endpoint array, aligned with :attr:`src`."""
        return self._dst

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the ``(src, dst)`` arrays in canonical edge order."""
        return self._src, self._dst

    # ------------------------------------------------------------------ #
    # Degrees
    # ------------------------------------------------------------------ #

    @cached_property
    def out_degrees(self) -> np.ndarray:
        """Out-degree per vertex (int64 array of length ``num_vertices``)."""
        return _count_endpoints(self._src, self._num_vertices)

    @cached_property
    def in_degrees(self) -> np.ndarray:
        """In-degree per vertex."""
        return _count_endpoints(self._dst, self._num_vertices)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Total degree (in + out) per vertex."""
        deg = self.out_degrees + self.in_degrees
        deg.setflags(write=False)
        return deg

    # ------------------------------------------------------------------ #
    # CSR adjacency (lazy)
    # ------------------------------------------------------------------ #

    @cached_property
    def _out_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, neighbor ids, edge ids) sorted by source vertex."""
        # Imported here: repro.kernels' package init imports this module.
        from repro.kernels.csr import stable_argsort

        order = stable_argsort(self._src, self._num_vertices)
        indptr = np.zeros(self._num_vertices + 1, dtype=np.int64)
        np.cumsum(self.out_degrees, out=indptr[1:])
        return indptr, self._dst[order], order

    @cached_property
    def _in_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, neighbor ids, edge ids) sorted by destination vertex."""
        from repro.kernels.csr import stable_argsort

        order = stable_argsort(self._dst, self._num_vertices)
        indptr = np.zeros(self._num_vertices + 1, dtype=np.int64)
        np.cumsum(self.in_degrees, out=indptr[1:])
        return indptr, self._src[order], order

    def out_neighbors(self, v: int) -> np.ndarray:
        """Destinations of edges leaving ``v`` (with multiplicity)."""
        indptr, nbrs, _ = self._out_csr
        self._check_vertex(v)
        return nbrs[indptr[v] : indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of edges entering ``v`` (with multiplicity)."""
        indptr, nbrs, _ = self._in_csr
        self._check_vertex(v)
        return nbrs[indptr[v] : indptr[v + 1]]

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._num_vertices):
            raise GraphError(
                f"vertex {v} out of range [0, {self._num_vertices})"
            )

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def reverse(self) -> "DiGraph":
        """Return the graph with every edge direction flipped."""
        return DiGraph(self._num_vertices, self._dst, self._src)

    def deduplicate(self) -> "DiGraph":
        """Return a copy with parallel edges collapsed (order re-canonicalised)."""
        if self.num_edges == 0:
            return DiGraph(self._num_vertices, self._src, self._dst)
        keys = self._src * np.int64(self._num_vertices) + self._dst
        _, idx = np.unique(keys, return_index=True)
        idx.sort()
        return DiGraph(self._num_vertices, self._src[idx], self._dst[idx])

    def without_self_loops(self) -> "DiGraph":
        """Return a copy with self loops removed."""
        keep = self._src != self._dst
        return DiGraph(self._num_vertices, self._src[keep], self._dst[keep])

    # ------------------------------------------------------------------ #
    # Interop / misc
    # ------------------------------------------------------------------ #

    @property
    def footprint_bytes(self) -> int:
        """Approximate in-memory footprint of the edge arrays."""
        return int(self._src.nbytes + self._dst.nbytes)

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate edges as Python int pairs (test/debug helper; slow)."""
        for u, v in zip(self._src.tolist(), self._dst.tolist()):
            yield u, v

    def to_networkx(self):
        """Convert to a ``networkx.MultiDiGraph`` (for verification in tests)."""
        import networkx as nx

        g = nx.MultiDiGraph()
        g.add_nodes_from(range(self._num_vertices))
        g.add_edges_from(zip(self._src.tolist(), self._dst.tolist()))
        return g

    @classmethod
    def from_edges(cls, edges, num_vertices: int = None) -> "DiGraph":
        """Build from an iterable of ``(u, v)`` pairs.

        ``num_vertices`` defaults to ``max endpoint + 1``.
        """
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64)
        if arr.size == 0:
            return cls(num_vertices or 0, np.empty(0, np.int64), np.empty(0, np.int64))
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError(f"edges must be an (m, 2) array, got shape {arr.shape}")
        n = int(arr.max()) + 1 if num_vertices is None else num_vertices
        return cls(n, arr[:, 0], arr[:, 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self._num_vertices == other._num_vertices
            and np.array_equal(self._src, other._src)
            and np.array_equal(self._dst, other._dst)
        )

    def __hash__(self):  # graphs are mutable-looking containers; keep unhashable
        raise TypeError("DiGraph is not hashable")

    def __repr__(self) -> str:
        return (
            f"DiGraph(num_vertices={self._num_vertices}, "
            f"num_edges={self.num_edges})"
        )
