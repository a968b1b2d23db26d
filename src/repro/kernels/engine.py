"""Vectorized gather and accounting kernels for the synchronous engine.

Two paths, one per accumulator, both under the bit-identity contract
with the per-machine superstep loop kept in ``tests/oracle/engine.py``:

* ``"sum"`` accumulators are **order-sensitive** in float64 — the
  per-machine loop adds per-machine ``bincount`` partials in machine
  order, and a different grouping rounds differently.
  :func:`gather_sum` therefore computes the (elementwise) messages once
  globally over the flat machine-sorted edge view but still reduces
  per-machine, adding per-machine partials equal to the loop's
  ``bincount`` arrays in the identical machine order.
* ``"min"`` accumulators are **exact** (no rounding), so the values, the
  active sets and the ``has_message`` masks do not depend on the
  partition at all.  :func:`frontier_log` runs the program once per
  graph with one global scatter-min over both edge directions and
  memoises each superstep's active and applied sets;
  :func:`frontier_supersteps` then accounts any partition from that log
  with integer counts only.

Both gathers run inside :class:`SuperstepLoop`, which owns one
:class:`Workspace` per run: the accumulators are refilled in place and a
superstep's edge-length temporaries live in buffers allocated once, so
its cost does not depend on what the allocator did before.

Hoisting the message computation is only valid when ``messages()`` is a
pure elementwise function of each source endpoint — programs declare that
with :attr:`~repro.engine.vertex_program.SyncVertexProgram.messages_elementwise`,
and the engine rejects any program that does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Optional, Tuple

import numpy as np
from numpy.typing import DTypeLike, NDArray

from repro.errors import EngineError
from repro.kernels.cache import app_key, graph_memo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.distributed_graph import DistributedGraph
    from repro.engine.vertex_program import SyncVertexProgram
    from repro.graph.digraph import DiGraph

__all__ = [
    "FrontierLog",
    "SuperstepLoop",
    "Workspace",
    "frontier_log",
    "frontier_supersteps",
    "gather_sum",
    "vertex_ops_vectorized",
]


#: Edges per slice where a whole-array call would allocate: 8,192 int64
#: indices are 64 KiB, under glibc's default 128 KiB mmap threshold, so
#: each slice's temporary is recycled heap memory.
_TAKE_CHUNK = 8192


def _take(
    a: NDArray[Any], indices: NDArray[np.int64], out: NDArray[Any]
) -> NDArray[Any]:
    """``out[:] = a[indices]``, allocating nothing index-length.

    ``mode="clip"``: every index here is a graph endpoint or an edge
    position, already in range, and the default ``"raise"`` buffers the
    whole output even with ``out=``.  numpy also copies a read-only
    index array whole before gathering (its C API asks for writeable
    input), and a graph's endpoints are frozen; so the gather goes a
    slice at a time, and such a copy is at most 64 KiB, which the
    allocator recycles.
    """
    for lo in range(0, indices.size, _TAKE_CHUNK):
        hi = lo + _TAKE_CHUNK
        a.take(indices[lo:hi], out=out[lo:hi], mode="clip")
    return out


def _edge_messages(
    program: "SyncVertexProgram",
    graph: "DiGraph",
    values: NDArray[np.float64],
    sources: NDArray[np.int64],
    out: NDArray[np.float64],
) -> None:
    """Fill ``out`` with the per-edge messages of ``sources``.

    For a declared-elementwise program with ``messages_vertexwise``,
    ``messages(values, sources)`` is ``f(values[s]) for s in sources``;
    computing ``f`` once per vertex and gathering is the same float64 per
    slot (each edge's value is produced by the identical float64
    operation), one O(|V|) pass plus one gather instead of two gathers
    plus O(|E|) arithmetic.
    """
    vertexwise = getattr(program, "messages_vertexwise", None)
    if vertexwise is None:
        out[...] = program.messages(graph, values, sources)
    else:
        per_vertex = np.asarray(vertexwise(graph, values), dtype=np.float64)
        if per_vertex.shape != values.shape:
            raise EngineError("messages_vertexwise must return a per-vertex array")
        _take(per_vertex, sources, out)


#: Accumulator identity per supported accumulator.
_ACC_INIT = {"sum": 0.0, "min": np.inf}

#: ``gather(values, active, workspace)``: fills the workspace's ``acc``
#: and ``has_message`` for one superstep and returns its edge-op counts.
Gather = Callable[
    [NDArray[np.float64], NDArray[np.bool_], "Workspace"],
    Optional[NDArray[np.float64]],
]


class Workspace:
    """One engine run's scratch arrays, owned by its :class:`SuperstepLoop`.

    ``acc`` and ``has_message`` are refilled in place every superstep.
    Each edge-length buffer is allocated on its first use, at the
    graph's edge count, and reused by every later superstep of the run;
    a gather slices the prefix it needs.  So a superstep allocates no
    edge-length array, and its cost does not depend on whether the
    allocator happens to hand back fresh pages.
    """

    __slots__ = ("acc", "has_message", "_partial", "_num_edges", "_edges")

    def __init__(self, num_vertices: int, num_edges: int) -> None:
        self.acc = np.empty(num_vertices, dtype=np.float64)
        self.has_message = np.empty(num_vertices, dtype=bool)
        self._partial: Optional[NDArray[np.float64]] = None
        self._num_edges = num_edges
        self._edges: Dict[str, NDArray[Any]] = {}

    def edges(self, name: str, dtype: DTypeLike) -> NDArray[Any]:
        """The run's edge-length buffer ``name``, allocated on first use."""
        buf = self._edges.get(name)
        if buf is None:
            buf = self._edges[name] = np.empty(self._num_edges, dtype=dtype)
        return buf

    @property
    def partial(self) -> NDArray[np.float64]:
        """A vertex-length buffer for one machine's ``sum`` partial."""
        if self._partial is None:
            self._partial = np.empty(self.acc.size, dtype=np.float64)
        return self._partial


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
        workspace = Workspace(n, graph.num_edges)
        acc, has_message = workspace.acc, workspace.has_message
        identity = _ACC_INIT[program.accumulator]
        values, active = self.values, self.active
        superstep = 0
        while np.any(active) and superstep < program.max_supersteps:
            acc.fill(identity)
            has_message.fill(False)
            edge_ops = self.gather(values, active, workspace)
            new_values, new_active = program.apply(graph, values, acc, has_message)
            new_values = np.asarray(new_values, dtype=np.float64)
            new_active = np.asarray(new_active, dtype=bool)
            if new_values.shape != (n,) or new_active.shape != (n,):
                raise EngineError("apply must return per-vertex arrays")
            # ``apply`` may hand back ``acc`` or ``has_message`` (or a view
            # of one); the next refill would overwrite it.
            if np.may_share_memory(new_values, acc):
                new_values = new_values.copy()
            if np.may_share_memory(new_active, has_message):
                new_active = new_active.copy()
            # ``applied`` is fresh every superstep: the engine keeps the
            # previous one to reuse its sync accounting.
            yield active, edge_ops, has_message | active
            values, active = new_values, new_active
            superstep += 1
        self.values, self.active = values, active

    @property
    def converged(self) -> bool:
        return not bool(np.any(self.active))


def _live_edges(
    active: NDArray[np.bool_],
    sources: NDArray[np.int64],
    targets: NDArray[np.int64],
    workspace: Workspace,
) -> Tuple[NDArray[np.bool_], NDArray[np.int64], NDArray[np.int64]]:
    """``(live, live sources, live targets)`` for the edges of ``sources``
    and ``targets`` whose source is active, kept in edge order.

    All three are ``workspace`` buffers.  A boolean index or
    ``np.compress`` would allocate each result (``np.compress`` buffers
    its output even with ``out=``), and so would ``np.flatnonzero`` over
    the whole mask; the live positions are found a slice at a time, so
    each is at most 64 KiB.  When every edge is live the endpoint arrays
    are returned as they are.
    """
    live = _take(active, sources, workspace.edges("live", bool))
    k = int(np.count_nonzero(live))
    if k == live.size:
        return live, sources, targets
    live_src = workspace.edges("src", np.int64)[:k]
    live_dst = workspace.edges("dst", np.int64)[:k]
    start = 0
    for lo in range(0, live.size, _TAKE_CHUNK):
        hi = lo + _TAKE_CHUNK
        pos = np.flatnonzero(live[lo:hi])
        stop = start + pos.size
        sources[lo:hi].take(pos, out=live_src[start:stop], mode="clip")
        targets[lo:hi].take(pos, out=live_dst[start:stop], mode="clip")
        start = stop
    return live, live_src, live_dst


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
    workspace: Workspace,
) -> NDArray[np.float64]:
    """One sum superstep's gather; returns per-machine edge-op counts.

    Fills the workspace's ``acc`` and ``has_message`` exactly as the
    per-machine loop would.  Messages are computed once over all live
    edges (exact: elementwise float ops do not depend on array
    grouping); the scatter-add stays per-machine because ``acc +=
    partial_0 += partial_1 ...`` rounds differently under any other
    grouping.
    """
    view = dgraph.edge_view
    m = dgraph.num_machines
    edge_ops = np.zeros(m, dtype=np.float64)
    if view.src.size == 0:
        return edge_ops
    acc, has_message = workspace.acc, workspace.has_message
    offsets = view.bounds
    if bool(np.all(active)):
        # All-live fast path (PageRank's all-or-nothing frontier): the
        # machine-sorted view already is the live edge list, with
        # ``bounds`` as the slice offsets.
        sources, targets = view.src, view.dst
        np.logical_or(has_message, _dst_mask(dgraph), out=has_message)
    else:
        live, sources, targets = _live_edges(active, view.src, view.dst, workspace)
        if sources.size == 0:
            return edge_ops
        if sources.size < live.size:
            # Compressing keeps each machine's live edges contiguous and
            # in order, so its slice starts after the live edges of the
            # machines before it.
            counts = [
                np.count_nonzero(live[offsets[i] : offsets[i + 1]])
                for i in range(m)
            ]
            offsets = np.concatenate(([0], np.cumsum(counts)))
        has_message[targets] = True
    msgs = workspace.edges("msgs", np.float64)[: sources.size]
    _edge_messages(program, dgraph.graph, values, sources, msgs)

    # Each machine's partial is built by ``np.add.at`` into the
    # workspace: it adds the weights onto zeros one edge at a time in
    # edge order, as ``bincount`` would, so the partial has the same
    # bits.  ``bincount`` would allocate a partial per call, and copy a
    # read-only ``targets`` (a one-machine view's are the graph's frozen
    # endpoints) whole.
    partial = workspace.partial
    for i in range(m):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        if lo == hi:
            continue
        # Same per-machine partial, added in the same machine order, as
        # the per-machine loop — hence the same float64 rounding.
        partial.fill(0.0)
        np.add.at(partial, targets[lo:hi], msgs[lo:hi])
        acc += partial
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
    workspace: Workspace,
) -> None:
    """Min-gather one edge direction over the whole graph.

    ``min`` is exact and order-free in float64, so one global scatter-min
    equals the per-machine sequence bit for bit, on any partition.
    """
    _, live_src, hit = _live_edges(active, sources, targets, workspace)
    if live_src.size == 0:
        return
    msgs = workspace.edges("msgs", np.float64)[: live_src.size]
    _edge_messages(program, graph, values, live_src, msgs)
    np.minimum.at(workspace.acc, hit, msgs)
    workspace.has_message[hit] = True


def _frozen(array: NDArray[Any]) -> NDArray[Any]:
    out = array.copy()
    out.setflags(write=False)
    return out


def _run_frontier(program: "SyncVertexProgram", graph: "DiGraph") -> FrontierLog:
    src, dst = graph.edges()

    def gather(
        values: NDArray[np.float64],
        active: NDArray[np.bool_],
        workspace: Workspace,
    ) -> None:
        _scatter_min(program, graph, values, src, dst, active, workspace)
        if program.undirected:
            _scatter_min(program, graph, values, dst, src, active, workspace)

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
    messages flow both ways.

    ``np.add.at`` counts into the table's columns: ``bincount`` would
    allocate a column per call, and copy a one-machine view's read-only
    endpoints whole."""
    view = dgraph.edge_view
    table = np.zeros((dgraph.num_vertices, dgraph.num_machines), dtype=np.int64)
    for i in range(dgraph.num_machines):
        lo, hi = int(view.bounds[i]), int(view.bounds[i + 1])
        np.add.at(table[:, i], view.src[lo:hi], 1)
        if undirected:
            np.add.at(table[:, i], view.dst[lo:hi], 1)
    return table


def frontier_supersteps(
    log: FrontierLog, dgraph: "DistributedGraph", undirected: bool
) -> Iterator[Tuple[NDArray[np.bool_], NDArray[np.float64], NDArray[np.bool_]]]:
    """Per superstep of ``log``: ``(active, edge_ops, applied)`` on ``dgraph``.

    A machine's gather touches each local edge whose source is active
    (and, undirected, each whose target is active): exactly the active
    rows of the incidence table, summed.  Integer counts convert to
    float64 exactly, so ``edge_ops`` equals the per-machine loop's.  The
    table is built per call, never stored on the shared layout.  The
    masked reduce sums the active rows in place, where ``table[active]``
    would copy them every superstep.
    """
    table = _incidence_counts(dgraph, undirected)
    for active, applied in log.steps:
        edge_ops = np.add.reduce(table, axis=0, where=active[:, None])
        yield active, edge_ops.astype(np.float64), applied


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
