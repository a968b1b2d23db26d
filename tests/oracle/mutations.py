"""Per-op edge scans: the reference for ``streaming.mutations.apply_batch``.

:func:`reference_apply_batch` finds each ``RemoveVertex``/``RemoveEdge``
op's edges by scanning the whole pre-batch edge list, so a batch of k
ops costs O(k·|E|).  Production indexes the batch's endpoints once per
batch (DESIGN.md §16); the hypothesis differential in
``tests/streaming/test_mutations_differential.py`` compares the two
result by result, error text included.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.errors import StreamError
from repro.graph.digraph import DiGraph
from repro.streaming.mutations import (
    AddEdge,
    AddVertices,
    ApplyResult,
    Mutation,
    MutationBatch,
    RemoveEdge,
    RemoveVertex,
    ReviveVertex,
)

__all__ = ["reference_apply_batch"]


def reference_apply_batch(
    graph: DiGraph,
    batch: MutationBatch,
    live: Optional[NDArray[np.bool_]] = None,
) -> ApplyResult:
    """``apply_batch(graph, batch, live)`` by a full edge scan per op."""
    src, dst = graph.edges()
    if live is None:
        live_arr = np.ones(graph.num_vertices, dtype=bool)
    else:
        live_arr = np.array(live, dtype=bool)
        if live_arr.shape != (graph.num_vertices,):
            raise StreamError(
                f"live mask has shape {live_arr.shape}, expected "
                f"({graph.num_vertices},)"
            )
    keep = np.ones(graph.num_edges, dtype=bool)
    added: List[Tuple[int, int]] = []
    touched: Set[int] = set()
    # Inverse op groups in forward order; reversed and flattened at the end.
    inverse_groups: List[List[Mutation]] = []

    def require_live(vertex: int, op_name: str, pair: Tuple[int, int]) -> None:
        if vertex >= live_arr.size or not live_arr[vertex]:
            raise StreamError(
                f"{op_name} {pair} references unknown vertex {vertex}"
            )

    for op in batch.ops:
        if isinstance(op, AddVertices):
            first = int(live_arr.size)
            live_arr = np.concatenate([live_arr, np.ones(op.count, dtype=bool)])
            new_ids = list(range(first, first + op.count))
            touched.update(new_ids)
            inverse_groups.append([RemoveVertex(v) for v in reversed(new_ids)])
        elif isinstance(op, RemoveVertex):
            v = op.vertex
            if v >= live_arr.size or not live_arr[v]:
                raise StreamError(f"remove_vertex references unknown vertex {v}")
            incident = np.nonzero(keep & ((src == v) | (dst == v)))[0]
            removed: List[Tuple[int, int]] = [
                (int(src[e]), int(dst[e])) for e in incident
            ]
            keep[incident] = False
            surviving_added: List[Tuple[int, int]] = []
            for u, w in added:
                if u == v or w == v:
                    removed.append((u, w))
                else:
                    surviving_added.append((u, w))
            added = surviving_added
            live_arr[v] = False
            touched.add(v)
            for u, w in removed:
                touched.update((u, w))
            inverse_groups.append(
                [ReviveVertex(v)] + [AddEdge(u, w) for u, w in removed]
            )
        elif isinstance(op, ReviveVertex):
            v = op.vertex
            if v >= live_arr.size:
                raise StreamError(f"revive_vertex references unknown vertex {v}")
            if live_arr[v]:
                raise StreamError(f"revive_vertex {v}: vertex is live")
            live_arr[v] = True
            touched.add(v)
            inverse_groups.append([RemoveVertex(v)])
        elif isinstance(op, AddEdge):
            require_live(op.src, "add_edge", (op.src, op.dst))
            require_live(op.dst, "add_edge", (op.src, op.dst))
            added.append((op.src, op.dst))
            touched.update((op.src, op.dst))
            inverse_groups.append([RemoveEdge(op.src, op.dst)])
        else:  # RemoveEdge — drop the last copy in current canonical order.
            u, w = op.src, op.dst
            for i in range(len(added) - 1, -1, -1):
                if added[i] == (u, w):
                    del added[i]
                    break
            else:
                candidates = np.nonzero(keep & (src == u) & (dst == w))[0]
                if candidates.size == 0:
                    raise StreamError(f"remove_edge ({u}, {w}): no such edge")
                keep[int(candidates[-1])] = False
            touched.update((u, w))
            inverse_groups.append([AddEdge(u, w)])

    kept_idx = np.nonzero(keep)[0].astype(np.int64)
    if added:
        added_arr = np.asarray(added, dtype=np.int64)
        new_src = np.concatenate([src[kept_idx], added_arr[:, 0]])
        new_dst = np.concatenate([dst[kept_idx], added_arr[:, 1]])
    else:
        new_src = src[kept_idx]
        new_dst = dst[kept_idx]
    edge_origin = np.concatenate(
        [kept_idx, np.full(len(added), -1, dtype=np.int64)]
    )
    edge_origin.setflags(write=False)
    live_arr.setflags(write=False)
    inverse_ops: List[Mutation] = []
    for group in reversed(inverse_groups):
        inverse_ops.extend(group)
    return ApplyResult(
        graph=DiGraph(int(live_arr.size), new_src, new_dst),
        live=live_arr,
        edge_origin=edge_origin,
        touched=tuple(sorted(touched)),
        inverse=MutationBatch(tuple(inverse_ops)),
    )
