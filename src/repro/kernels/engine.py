"""Vectorized gather and accounting kernels for the synchronous engine.

Two paths, one per accumulator, both under the bit-identity contract
with the per-machine superstep loop kept in ``tests/oracle/engine.py``:

* ``"sum"`` accumulators are **order-sensitive** in float64 — the
  per-machine loop adds per-machine ``bincount`` partials in machine
  order, and a different grouping rounds differently.
  :func:`gather_sum` therefore computes the (elementwise) messages once
  globally over the flat machine-sorted edge view but still reduces
  per-machine, adding the per-machine partial ``bincount`` arrays in the
  identical machine order.
* ``"min"`` accumulators are **exact** (no rounding), so the values, the
  active sets and the ``has_message`` masks do not depend on the
  partition at all.  :func:`frontier_log` runs the program once per
  graph with one global scatter-min over both edge directions and
  memoises each superstep's active and applied sets;
  :func:`frontier_supersteps` then accounts any partition from that log
  with integer counts only.

Hoisting the message computation is only valid when ``messages()`` is a
pure elementwise function of each source endpoint — programs declare that
with :attr:`~repro.engine.vertex_program.SyncVertexProgram.messages_elementwise`,
and the engine rejects any program that does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.errors import EngineError
from repro.kernels.cache import app_key, graph_memo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.distributed_graph import DistributedGraph
    from repro.engine.vertex_program import SyncVertexProgram
    from repro.graph.digraph import DiGraph

__all__ = [
    "FrontierLog",
    "SuperstepLoop",
    "frontier_log",
    "frontier_supersteps",
    "gather_sum",
    "vertex_ops_vectorized",
]


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


#: Accumulator identity per supported accumulator.
_ACC_INIT = {"sum": 0.0, "min": np.inf}

#: ``gather(values, active, acc, has_message)``: fills ``acc`` and
#: ``has_message`` for one superstep and returns its edge-op counts.
Gather = Callable[
    [NDArray[np.float64], NDArray[np.bool_], NDArray[np.float64], NDArray[np.bool_]],
    Optional[NDArray[np.float64]],
]


class SuperstepLoop:
    """A sync program's superstep loop on one graph, around a gather.

    Iterating yields ``(active, edge_ops, applied)`` per superstep, where
    ``edge_ops`` is what ``gather`` returned and ``applied = has_message
    | active`` is the set the sync phase pays for.  Once the iteration
    is exhausted, ``values`` and ``converged`` hold the end state.
    """

    def __init__(
        self, program: "SyncVertexProgram", graph: "DiGraph", gather: Gather
    ) -> None:
        n = graph.num_vertices
        self.program = program
        self.graph = graph
        self.gather = gather
        self.values = np.asarray(program.initial_values(graph), dtype=np.float64)
        if self.values.shape != (n,):
            raise EngineError(
                f"initial_values must have shape ({n},), got {self.values.shape}"
            )
        self.active = np.asarray(program.initial_active(graph), dtype=bool)

    def __iter__(
        self,
    ) -> Iterator[
        Tuple[NDArray[np.bool_], Optional[NDArray[np.float64]], NDArray[np.bool_]]
    ]:
        program, graph = self.program, self.graph
        n = graph.num_vertices
        values, active = self.values, self.active
        superstep = 0
        while np.any(active) and superstep < program.max_supersteps:
            acc = np.full(n, _ACC_INIT[program.accumulator], dtype=np.float64)
            has_message = np.zeros(n, dtype=bool)
            edge_ops = self.gather(values, active, acc, has_message)
            new_values, new_active = program.apply(graph, values, acc, has_message)
            new_values = np.asarray(new_values, dtype=np.float64)
            new_active = np.asarray(new_active, dtype=bool)
            if new_values.shape != (n,) or new_active.shape != (n,):
                raise EngineError("apply must return per-vertex arrays")
            yield active, edge_ops, has_message | active
            values, active = new_values, new_active
            superstep += 1
        self.values, self.active = values, active

    @property
    def converged(self) -> bool:
        return not bool(np.any(self.active))


# ---------------------------------------------------------------------- #
# Sum: per-partition gather with the per-machine-order reduction
# ---------------------------------------------------------------------- #


def _dst_mask(dgraph: "DistributedGraph") -> NDArray[np.bool_]:
    """Memoised ``has_message`` template: True where a vertex has in-edges."""
    mask = dgraph.__dict__.get("_kernels_dst_mask")
    if mask is None:
        mask = np.zeros(dgraph.num_vertices, dtype=bool)
        mask[dgraph.edge_view.dst] = True
        dgraph.__dict__["_kernels_dst_mask"] = mask
    return mask


def gather_sum(
    program: "SyncVertexProgram",
    dgraph: "DistributedGraph",
    values: NDArray[np.float64],
    active: NDArray[np.bool_],
    acc: NDArray[np.float64],
    has_message: NDArray[np.bool_],
) -> NDArray[np.float64]:
    """One sum superstep's gather; returns per-machine edge-op counts.

    Mutates ``acc`` and ``has_message`` exactly as the per-machine loop
    would.  Messages are computed once over all live edges (exact:
    elementwise float ops do not depend on array grouping); the
    scatter-add stays per-machine because ``acc += partial_0 += partial_1
    ...`` rounds differently under any other grouping.
    """
    view = dgraph.edge_view
    m = dgraph.num_machines
    edge_ops = np.zeros(m, dtype=np.float64)
    if view.src.size == 0:
        return edge_ops
    graph = dgraph.graph
    if bool(np.all(active)):
        # All-live fast path (PageRank's all-or-nothing frontier): the
        # live set is every edge, so skip the mask and the three
        # compress copies — the machine-sorted view already is the
        # compressed form, with ``bounds`` as the slice offsets.
        msgs = _edge_messages(program, graph, values, view.src)
        targets = view.dst
        offsets = view.bounds
        np.logical_or(has_message, _dst_mask(dgraph), out=has_message)
    else:
        live = active[view.src]
        if not np.any(live):
            return edge_ops
        # Compressing keeps each machine's live edges contiguous and in
        # order; the live count before each machine's first slot is the
        # running count read at its bound.
        running = np.zeros(live.size + 1, dtype=np.int64)
        np.cumsum(live, out=running[1:])
        offsets = running[view.bounds]
        targets = view.dst[live]
        msgs = _edge_messages(program, graph, values, view.src[live])
        has_message[targets] = True

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
    return edge_ops


# ---------------------------------------------------------------------- #
# Min: one frontier log per graph, accounted per partition
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class FrontierLog:
    """A ``min`` program's partition-independent run on one graph.

    ``steps[k]`` is superstep ``k``'s ``(active, applied)`` masks, where
    ``applied = has_message | active`` is the set the sync phase pays
    for.  ``values`` is the final state; ``converged`` is false when the
    ``max_supersteps`` cap stopped a live frontier.  All arrays are
    read-only: one log serves every partition of the graph.
    """

    steps: Tuple[Tuple[NDArray[np.bool_], NDArray[np.bool_]], ...]
    values: NDArray[np.float64]
    converged: bool


def _scatter_min(
    program: "SyncVertexProgram",
    graph: "DiGraph",
    values: NDArray[np.float64],
    sources: NDArray[np.int64],
    targets: NDArray[np.int64],
    active: NDArray[np.bool_],
    acc: NDArray[np.float64],
    has_message: NDArray[np.bool_],
) -> None:
    """Min-gather one edge direction over the whole graph.

    ``min`` is exact and order-free in float64, so one global scatter-min
    equals the per-machine sequence bit for bit, on any partition.
    """
    live = active[sources]
    if not np.any(live):
        return
    hit = targets[live]
    msgs = _edge_messages(program, graph, values, sources[live])
    np.minimum.at(acc, hit, msgs)
    has_message[hit] = True


def _frozen(array: NDArray[Any]) -> NDArray[Any]:
    out = array.copy()
    out.setflags(write=False)
    return out


def _run_frontier(program: "SyncVertexProgram", graph: "DiGraph") -> FrontierLog:
    src, dst = graph.edges()

    def gather(
        values: NDArray[np.float64],
        active: NDArray[np.bool_],
        acc: NDArray[np.float64],
        has_message: NDArray[np.bool_],
    ) -> None:
        _scatter_min(program, graph, values, src, dst, active, acc, has_message)
        if program.undirected:
            _scatter_min(program, graph, values, dst, src, active, acc, has_message)

    loop = SuperstepLoop(program, graph, gather)
    steps = tuple((_frozen(active), _frozen(applied)) for active, _, applied in loop)
    return FrontierLog(
        steps=steps, values=_frozen(loop.values), converged=loop.converged
    )


def frontier_log(program: "SyncVertexProgram", graph: "DiGraph") -> FrontierLog:
    """The program's frontier log on ``graph``, memoised per graph.

    Keyed like the ``trace`` cache's app part (:func:`app_key`), in the
    graph's own memo, so it dies with the graph.  An app that cannot be
    keyed runs unmemoised.
    """
    akey = app_key(program)
    if akey is None:
        return _run_frontier(program, graph)
    memo = graph_memo(graph)
    key = ("frontier",) + akey
    cached = memo.get(key)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    log = _run_frontier(program, graph)
    memo[key] = log
    return log


def _incidence_counts(
    dgraph: "DistributedGraph", undirected: bool
) -> NDArray[np.int64]:
    """``(vertex, machine)`` count of the machine's local edges that an
    active vertex sends along: its out-edges, plus its in-edges when
    messages flow both ways."""
    view = dgraph.edge_view
    n = dgraph.num_vertices
    table = np.zeros((n, dgraph.num_machines), dtype=np.int64)
    for i in range(dgraph.num_machines):
        lo, hi = int(view.bounds[i]), int(view.bounds[i + 1])
        table[:, i] = np.bincount(view.src[lo:hi], minlength=n)
        if undirected:
            table[:, i] += np.bincount(view.dst[lo:hi], minlength=n)
    return table


def frontier_supersteps(
    log: FrontierLog, dgraph: "DistributedGraph", undirected: bool
) -> Iterator[Tuple[NDArray[np.bool_], NDArray[np.float64], NDArray[np.bool_]]]:
    """Per superstep of ``log``: ``(active, edge_ops, applied)`` on ``dgraph``.

    A machine's gather touches each local edge whose source is active
    (and, undirected, each whose target is active): exactly the active
    rows of the incidence table, summed.  Integer counts convert to
    float64 exactly, so ``edge_ops`` equals the per-machine loop's.  The
    table is built per call, never stored on the shared layout.
    """
    table = _incidence_counts(dgraph, undirected)
    for active, applied in log.steps:
        yield active, table[active].sum(axis=0).astype(np.float64), applied


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
