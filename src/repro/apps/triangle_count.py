"""Triangle Count.

The PowerGraph implementation keeps a hash set of neighbours per vertex
and, for every edge ``(u, v)``, intersects the two endpoint neighbour
sets.  The intersection work — and hence the runtime — is governed by the
*degrees* of the endpoints, which makes Triangle Count the most
graph-structure-sensitive application in the suite: denser graphs cost
superlinearly more, and the hot adjacency of hub vertices is re-read
constantly (the LLC-sensitive behaviour behind its Fig. 8a jump on
c4.8xlarge).

The counting algorithm here is the standard degree-oriented enumeration:
orient every undirected edge from the lower-degree endpoint to the higher
(ties by id), expand every wedge ``a -> b -> c`` of the oriented graph,
and count the wedges closed by the oriented edge ``a -> c``.  Each
triangle is counted exactly once, and the orientation bounds every
out-degree by ~sqrt(2|E|), keeping the wedge expansion tractable.  The
per-machine *work accounting* follows the PowerGraph algorithm it models:
each local edge pays the merge cost ``d(u) + d(v)``.
"""

from __future__ import annotations

import numpy as np

from repro.engine.accounting import AppCostModel
from repro.engine.distributed_graph import DistributedGraph
from repro.engine.trace import ExecutionTrace, MachinePhase, SuperstepTrace
from repro.engine.vertex_program import GraphApplication
from repro.graph.digraph import DiGraph
from repro.kernels.accounting import cached_triangle_total
from repro.kernels.cache import graph_memo
from repro.kernels.csr import concat_ranges, sorted_distinct

__all__ = ["TriangleCount", "skeleton_degrees", "undirected_simple_edges"]


def undirected_simple_edges(graph: DiGraph):
    """Canonical undirected simple edge set ``(u < v)`` of a digraph.

    Mirrors PowerGraph's Triangle Count, which treats the input as
    undirected and ignores self loops and parallel edges.

    Memoised per graph instance (it is a pure function of the graph, and
    Coloring, Triangle Count and the experiment drivers all recompute
    it); the returned arrays are read-only.
    """
    memo = graph_memo(graph)
    cached = memo.get(("skeleton",))
    if cached is not None:
        return cached
    src, dst = graph.edges()
    u = np.minimum(src, dst)
    v = np.maximum(src, dst)
    keep = u != v
    u, v = u[keep], v[keep]
    if u.size:
        # Sorted distinct keys decode to the pairs in (u, v) order: the
        # same arrays as ``np.unique(keys, return_index=True)``'s first
        # occurrences, without its stable mergesort argsort.
        n = np.int64(graph.num_vertices)
        u, v = np.divmod(sorted_distinct(u * n + v), n)
    u.setflags(write=False)
    v.setflags(write=False)
    memo[("skeleton",)] = (u, v)
    return u, v


def skeleton_degrees(graph: DiGraph):
    """Undirected degrees on the simple skeleton, one int64 per vertex.

    Memoised per graph instance beside the skeleton itself; the returned
    array is read-only.
    """
    memo = graph_memo(graph)
    cached = memo.get(("skeleton_degrees",))
    if cached is not None:
        return cached
    u, v = undirected_simple_edges(graph)
    n = graph.num_vertices
    deg = (np.bincount(u, minlength=n) + np.bincount(v, minlength=n)).astype(
        np.int64
    )
    deg.setflags(write=False)
    memo[("skeleton_degrees",)] = deg
    return deg


class TriangleCount(GraphApplication):
    """Exact triangle counting over the undirected simple skeleton.

    :meth:`count_triangles` holds one skeleton-length array: the oriented
    edges as sorted keys ``a * n + c``, built in place, whose row pointers
    come from ``searchsorted``.  Wedges are expanded one block of rows at
    a time, their tails read back from the keys, and a block's closed
    wedges are counted with two ``searchsorted`` calls against its own
    keys.  The total does not depend on ``row_block``.

    Parameters
    ----------
    row_block:
        Rows whose wedges are expanded together (bounds peak memory on
        skewed graphs).
    """

    name = "triangle_count"

    cost = AppCostModel(
        flops_per_edge_op=7.0,
        stream_bytes_per_edge_op=1.0,
        cacheable_bytes_per_edge_op=3.5,
        flops_per_vertex_op=4.0,
        stream_bytes_per_vertex_op=8.0,
        serial_fraction=0.03,
        serial_flops_per_superstep=1e4,
        value_bytes=8,
        sync_rounds=2,
    )

    def __init__(self, row_block: int = 4096):
        if row_block < 1:
            raise ValueError(f"row_block must be >= 1, got {row_block}")
        self.row_block = row_block

    # ------------------------------------------------------------------ #

    def count_triangles(self, graph: DiGraph) -> int:
        """Total number of triangles in the undirected simple skeleton."""
        u, v = undirected_simple_edges(graph)
        n = graph.num_vertices
        if u.size == 0 or n < 3:
            return 0
        deg = skeleton_degrees(graph)
        nn = np.int64(n)

        # Orient lower (degree, id) -> higher (degree, id), as one sorted
        # key array a*n + c: rows in order, each row's columns ascending.
        # The skeleton has u < v, so only a strictly higher deg[u] flips.
        keys = u * nn
        keys += v
        flip = deg[u] > deg[v]
        keys[flip] = v[flip] * nn + u[flip]
        del flip
        keys.sort()
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * nn)
        out_deg = np.diff(indptr)

        total = 0
        for start in range(0, n, self.row_block):
            lo = indptr[start]
            hi = indptr[min(start + self.row_block, n)]
            # Wedge keys a*n + c for every a->b->c with a->b in the block:
            # row b's tails, each plus its head's row base.
            block = keys[lo:hi]
            heads, mids = np.divmod(block, nn)
            wedges = keys[concat_ranges(indptr[mids], indptr[mids + 1])]
            wedges %= nn
            wedges += np.repeat(heads * nn, out_deg[mids])
            wedges.sort()
            # A wedge is closed when a->c is among the block's own keys:
            # count, per (distinct) key, the sorted wedges equal to it.
            total += int(
                np.sum(
                    np.searchsorted(wedges, block, side="right")
                    - np.searchsorted(wedges, block, side="left")
                )
            )
        return total

    # ------------------------------------------------------------------ #

    def execute(self, dgraph: DistributedGraph) -> ExecutionTrace:
        graph = dgraph.graph
        m = dgraph.num_machines
        trace = ExecutionTrace(app=self.name, num_machines=m)
        # The total is partition-independent; memoise it per graph.
        total = cached_triangle_total(self, graph)

        # Work accounting per the PowerGraph algorithm: every local edge
        # intersects its endpoints' neighbour sets at merge cost
        # d(u) + d(v).  Degrees are the undirected simple degrees.
        deg = skeleton_degrees(graph)

        all_vertices = np.ones(graph.num_vertices, dtype=bool)
        comm = dgraph.sync_bytes(all_vertices, self.cost.value_bytes)
        phases = []
        for i in range(m):
            ls, ld = dgraph.local_src[i], dgraph.local_dst[i]
            edge_ops = float(np.sum(deg[ls] + deg[ld])) if ls.size else 0.0
            vertex_ops = float(dgraph.masters_on(i).size)
            work = self.cost.work(
                edge_ops=edge_ops,
                vertex_ops=vertex_ops,
                working_set_mb=float(dgraph.working_set_mb[i]),
            )
            phases.append(MachinePhase(work=work, comm_bytes=float(comm[i])))
        trace.append(
            SuperstepTrace(
                phases=phases, sync_rounds=self.cost.sync_rounds, label="count"
            )
        )
        trace.result = {"triangles": total}
        return trace
