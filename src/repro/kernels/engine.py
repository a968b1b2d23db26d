"""Vectorized gather/sync kernels for the synchronous engine.

Replaces :class:`~repro.engine.sync_engine.SyncEngine`'s per-machine
gather loop with hoisted computation over the flat machine-sorted edge
view, under the bit-identity contract:

* ``"sum"`` accumulators are **order-sensitive** in float64 — the
  per-machine loop adds per-machine ``bincount`` partials in machine
  order, and a different grouping rounds differently.  The hoisted kernel therefore
  computes the (elementwise) messages once globally but still reduces
  per-machine, adding the per-machine partial ``bincount`` arrays in the
  identical machine order.
* ``"min"`` accumulators are **exact** (no rounding), so a single global
  ``np.minimum.at`` over all live edges equals any per-machine sequence.

Hoisting the message computation is only valid when ``messages()`` is a
pure elementwise function of each source endpoint — programs declare that
with :attr:`~repro.engine.vertex_program.SyncVertexProgram.messages_elementwise`;
everything else falls back to the per-machine sequence.  The per-machine
superstep loop itself is kept as a test reference in
``tests/oracle/engine.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from repro.kernels.csr import MachineEdgeView, machine_edges

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.distributed_graph import DistributedGraph
    from repro.engine.vertex_program import SyncVertexProgram
    from repro.graph.digraph import DiGraph

__all__ = ["gather_vectorized", "vertex_ops_vectorized"]


def gather_vectorized(
    program: "SyncVertexProgram",
    dgraph: "DistributedGraph",
    values: NDArray[np.float64],
    active: NDArray[np.bool_],
    acc: NDArray[np.float64],
    has_message: NDArray[np.bool_],
) -> NDArray[np.float64]:
    """One superstep's gather phase; returns per-machine edge-op counts.

    Mutates ``acc`` and ``has_message`` exactly as the per-machine loop
    would.
    """
    graph = dgraph.graph
    m = dgraph.num_machines
    edge_ops = np.zeros(m, dtype=np.float64)

    hoistable = program.messages_elementwise and (
        program.accumulator == "min" or not program.undirected
    )
    if not hoistable:
        # Reference sequence: per machine, forward then (if undirected)
        # reverse — the per-machine loop itself.
        from repro.engine.sync_engine import SyncEngine

        for i in range(m):
            ls, ld = dgraph.local_src[i], dgraph.local_dst[i]
            edge_ops[i] += SyncEngine._gather(
                program, graph, values, ls, ld, active, acc, has_message
            )
            if program.undirected:
                edge_ops[i] += SyncEngine._gather(
                    program, graph, values, ld, ls, active, acc, has_message
                )
        return edge_ops

    view = machine_edges(dgraph)
    if program.accumulator == "sum":
        _gather_sum_hoisted(
            program, dgraph, view, values, active, acc, has_message, edge_ops
        )
    else:
        _gather_min_hoisted(
            program, graph, view.src, view.dst, view.machine_ids, view.bounds,
            values, active, acc, has_message, edge_ops,
        )
        if program.undirected:
            _gather_min_hoisted(
                program, graph, view.dst, view.src, view.machine_ids,
                view.bounds, values, active, acc, has_message, edge_ops,
            )
    return edge_ops


def _edge_messages(
    program: "SyncVertexProgram",
    graph: "DiGraph",
    values: NDArray[np.float64],
    sources: NDArray[np.int64],
) -> NDArray[np.float64]:
    """Per-edge messages, via the vertexwise hoist when available.

    For a declared-elementwise program, ``messages(values, sources)`` is
    ``f(values[s]) for s in sources``; computing ``f`` once per vertex and
    gathering is the same float64 per slot (each edge's value is produced
    by the identical float64 operation), one O(|V|) pass plus one gather
    instead of two gathers plus O(|E|) arithmetic.
    """
    vertexwise = getattr(program, "messages_vertexwise", None)
    if vertexwise is not None:
        return vertexwise(graph, values)[sources]  # type: ignore[no-any-return]
    return program.messages(graph, values, sources)


def _dst_mask(
    dgraph: "DistributedGraph", view: MachineEdgeView
) -> NDArray[np.bool_]:
    """Memoised ``has_message`` template: True where a vertex has in-edges."""
    mask = dgraph.__dict__.get("_kernels_dst_mask")
    if mask is None:
        mask = np.zeros(dgraph.num_vertices, dtype=bool)
        mask[view.dst] = True
        dgraph.__dict__["_kernels_dst_mask"] = mask
    return mask


def _gather_sum_hoisted(
    program: "SyncVertexProgram",
    dgraph: "DistributedGraph",
    view: MachineEdgeView,
    values: NDArray[np.float64],
    active: NDArray[np.bool_],
    acc: NDArray[np.float64],
    has_message: NDArray[np.bool_],
    edge_ops: NDArray[np.float64],
) -> None:
    """Sum-accumulator gather with the per-machine-order reduction.

    Messages are computed once over all live edges (exact: elementwise
    float ops do not depend on array grouping); the scatter-add stays
    per-machine because ``acc += partial_0 += partial_1 ...`` rounds
    differently under any other grouping.
    """
    if view.src.size == 0:
        return
    graph = dgraph.graph
    if bool(np.all(active)):
        # All-live fast path (PageRank's all-or-nothing frontier): the
        # live set is every edge, so skip the mask and the three
        # compress copies — the machine-sorted view already is the
        # compressed form, with ``bounds`` as the slice offsets.
        msgs = _edge_messages(program, graph, values, view.src)
        targets = view.dst
        offsets = view.bounds
        np.logical_or(has_message, _dst_mask(dgraph, view), out=has_message)
    else:
        live = active[view.src]
        if not np.any(live):
            return
        sources = view.src[live]
        targets = view.dst[live]
        machines = view.machine_ids[live]
        counts = np.bincount(machines, minlength=edge_ops.size)
        offsets = np.zeros(edge_ops.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        msgs = _edge_messages(program, graph, values, sources)
        has_message[targets] = True

    m = edge_ops.size
    for i in range(m):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        if lo == hi:
            continue
        # Same per-machine bincount partial, added in the same machine
        # order, as the per-machine loop — hence the same float64 rounding.
        acc += np.bincount(
            targets[lo:hi], weights=msgs[lo:hi], minlength=acc.size
        )
        edge_ops[i] += hi - lo


def _gather_min_hoisted(
    program: "SyncVertexProgram",
    graph: "DiGraph",
    sources_all: NDArray[np.int64],
    targets_all: NDArray[np.int64],
    machines_all: NDArray[np.int32],
    bounds: NDArray[np.int64],
    values: NDArray[np.float64],
    active: NDArray[np.bool_],
    acc: NDArray[np.float64],
    has_message: NDArray[np.bool_],
    edge_ops: NDArray[np.float64],
) -> None:
    """Min-accumulator gather for one edge direction, all machines at once.

    ``min`` is exact and order-free in float64, so one global scatter-min
    equals the per-machine sequence bit for bit.
    """
    if sources_all.size == 0:
        return
    if bool(np.all(active)):
        # All-live: every edge participates, no mask/compress needed.
        sources, targets = sources_all, targets_all
        edge_ops += np.diff(bounds)
    else:
        live = active[sources_all]
        if not np.any(live):
            return
        sources = sources_all[live]
        targets = targets_all[live]
        edge_ops += np.bincount(
            machines_all[live], minlength=edge_ops.size
        ).astype(np.float64)
    msgs = _edge_messages(program, graph, values, sources)
    np.minimum.at(acc, targets, msgs)
    has_message[targets] = True


def vertex_ops_vectorized(
    dgraph: "DistributedGraph", applied: NDArray[np.bool_]
) -> NDArray[np.float64]:
    """Per-machine count of applied vertices mastered on each machine.

    Equals the per-machine ``count_nonzero(applied[masters_on(i)])`` loop:
    a vertex contributes to machine ``i`` iff it is applied and its
    master is ``i`` (disconnected vertices have master ``-1`` and are
    mastered nowhere).  Integer counts convert exactly to float64.
    """
    selected = applied & (dgraph.master >= 0)
    return np.bincount(
        dgraph.master[selected], minlength=dgraph.num_machines
    ).astype(np.float64)
