"""Graph mutation streams: typed, seeded, JSON round-trippable.

Every scenario before this module processed a static graph once.  Real
deployments see *churn*: edges appear and disappear, vertices join and
leave.  A :class:`MutationStream` describes such a history as data — an
ordered sequence of :class:`MutationBatch` es, each a list of typed
operations applied atomically between engine epochs — so the same churn
scenario can be replayed against any strategy or cluster and
always produce the identical sequence of graphs.

The vertex model is **tombstoning**: :class:`DiGraph` requires dense ids,
so removing a vertex keeps its id in the address space but marks it dead
(all incident edges are dropped; dead ids reject new edges until a
:class:`ReviveVertex` brings them back).  ``AddVertices`` appends fresh
ids at the top of the range.  This preserves the canonical-edge-order
contract partitioners rely on: after a batch, surviving edges keep their
relative order and inserted edges append at the end —
:attr:`ApplyResult.edge_origin` records exactly that mapping, which is
what lets the incremental partitioner carry placements across batches.

Format mirrors :mod:`repro.faults.schedule`: plain dataclasses, a
versioned JSON layout (:data:`STREAM_FORMAT_VERSION`, other versions are
rejected with :class:`~repro.errors.StreamFormatError`), ``save`` /
``load`` / ``describe`` for the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from repro.errors import StreamError, StreamFormatError
from repro.graph.digraph import DiGraph
from repro.kernels.csr import sorted_distinct, stable_argsort
from repro.utils.canonical import canonical_digest
from repro.utils.validation import require_integer

__all__ = [
    "STREAM_FORMAT_VERSION",
    "AddVertices",
    "RemoveVertex",
    "ReviveVertex",
    "AddEdge",
    "RemoveEdge",
    "Mutation",
    "MutationBatch",
    "MutationStream",
    "ApplyResult",
    "apply_batch",
]

#: Bump when the serialized layout changes; readers reject other versions.
STREAM_FORMAT_VERSION = 1


@dataclass(frozen=True)
class AddVertices:
    """Append ``count`` fresh live vertices at the top of the id range."""

    count: int

    def __post_init__(self) -> None:
        require_integer(self.count, "add_vertices count", StreamFormatError)
        if self.count < 1:
            raise StreamError(f"add_vertices count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class RemoveVertex:
    """Tombstone one live vertex: drop its incident edges, mark it dead."""

    vertex: int

    def __post_init__(self) -> None:
        require_integer(self.vertex, "remove_vertex vertex", StreamFormatError)
        if self.vertex < 0:
            raise StreamError(f"remove_vertex id must be >= 0, got {self.vertex}")


@dataclass(frozen=True)
class ReviveVertex:
    """Bring a tombstoned vertex back (edge-free, same id)."""

    vertex: int

    def __post_init__(self) -> None:
        require_integer(self.vertex, "revive_vertex vertex", StreamFormatError)
        if self.vertex < 0:
            raise StreamError(f"revive_vertex id must be >= 0, got {self.vertex}")


@dataclass(frozen=True)
class AddEdge:
    """Append one directed edge between two live vertices."""

    src: int
    dst: int

    def __post_init__(self) -> None:
        require_integer(self.src, "add_edge src", StreamFormatError)
        require_integer(self.dst, "add_edge dst", StreamFormatError)
        if self.src < 0 or self.dst < 0:
            raise StreamError(
                f"add_edge endpoints must be >= 0, got ({self.src}, {self.dst})"
            )


@dataclass(frozen=True)
class RemoveEdge:
    """Remove the last copy (in canonical order) of one directed edge.

    Removing a single copy — not all parallel copies — makes
    ``AddEdge``/``RemoveEdge`` exact inverses of one another, which is
    what the stream-inversion contract is built on.
    """

    src: int
    dst: int

    def __post_init__(self) -> None:
        require_integer(self.src, "remove_edge src", StreamFormatError)
        require_integer(self.dst, "remove_edge dst", StreamFormatError)
        if self.src < 0 or self.dst < 0:
            raise StreamError(
                f"remove_edge endpoints must be >= 0, got ({self.src}, {self.dst})"
            )


Mutation = Union[AddVertices, RemoveVertex, ReviveVertex, AddEdge, RemoveEdge]

#: JSON ``op`` tag per operation type (and back).
_OP_TAGS: Dict[type, str] = {
    AddVertices: "add_vertices",
    RemoveVertex: "remove_vertex",
    ReviveVertex: "revive_vertex",
    AddEdge: "add_edge",
    RemoveEdge: "remove_edge",
}


def _op_to_jsonable(op: Mutation) -> Dict[str, Any]:
    if isinstance(op, AddVertices):
        return {"op": "add_vertices", "count": op.count}
    if isinstance(op, RemoveVertex):
        return {"op": "remove_vertex", "vertex": op.vertex}
    if isinstance(op, ReviveVertex):
        return {"op": "revive_vertex", "vertex": op.vertex}
    if isinstance(op, AddEdge):
        return {"op": "add_edge", "src": op.src, "dst": op.dst}
    return {"op": "remove_edge", "src": op.src, "dst": op.dst}


def _op_from_jsonable(data: Any) -> Mutation:
    if not isinstance(data, dict):
        raise StreamFormatError(f"mutation op must be an object, got {type(data).__name__}")
    fields = dict(data)
    tag = fields.pop("op", None)
    # Tag -> class lookup; tags are unique, so build order is immaterial.
    makers: Dict[Any, type] = {
        v: k for k, v in _OP_TAGS.items()  # repro: allow[DET003]
    }
    maker = makers.get(tag) if isinstance(tag, str) else None
    if maker is None:
        raise StreamFormatError(f"unknown mutation op {tag!r}")
    try:
        return maker(**fields)  # type: ignore[no-any-return]
    except TypeError as exc:
        raise StreamFormatError(f"malformed {tag} op: {exc}") from exc


@dataclass(frozen=True)
class MutationBatch:
    """One atomic group of mutations, applied in order between epochs."""

    ops: Tuple[Mutation, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    def to_jsonable(self) -> List[Dict[str, Any]]:
        return [_op_to_jsonable(op) for op in self.ops]

    @classmethod
    def from_jsonable(cls, data: Any) -> "MutationBatch":
        if not isinstance(data, list):
            raise StreamFormatError(
                f"mutation batch must be a list of ops, got {type(data).__name__}"
            )
        return cls(ops=tuple(_op_from_jsonable(op) for op in data))


class _Liveness:
    """Dense liveness simulation shared by validation and application."""

    __slots__ = ("live",)

    def __init__(self, num_vertices: int):
        self.live: List[bool] = [True] * num_vertices

    @property
    def size(self) -> int:
        return len(self.live)

    def check(self, op: Mutation) -> None:
        """Raise :class:`StreamError` if ``op`` is invalid in this state."""
        if isinstance(op, AddVertices):
            self.live.extend([True] * op.count)
        elif isinstance(op, RemoveVertex):
            if op.vertex >= self.size:
                raise StreamError(
                    f"remove_vertex references unknown vertex {op.vertex} "
                    f"(graph has {self.size} vertices)"
                )
            if not self.live[op.vertex]:
                raise StreamError(
                    f"remove_vertex references unknown vertex {op.vertex} "
                    "(already removed)"
                )
            self.live[op.vertex] = False
        elif isinstance(op, ReviveVertex):
            if op.vertex >= self.size:
                raise StreamError(
                    f"revive_vertex references unknown vertex {op.vertex} "
                    f"(graph has {self.size} vertices)"
                )
            if self.live[op.vertex]:
                raise StreamError(f"revive_vertex {op.vertex}: vertex is live")
            self.live[op.vertex] = True
        elif isinstance(op, AddEdge):
            for end in (op.src, op.dst):
                if end >= self.size or not self.live[end]:
                    raise StreamError(
                        f"add_edge ({op.src}, {op.dst}) references unknown "
                        f"vertex {end}"
                    )
        else:  # RemoveEdge: existence needs the graph; ids checked here.
            for end in (op.src, op.dst):
                if end >= self.size:
                    raise StreamError(
                        f"remove_edge ({op.src}, {op.dst}) references unknown "
                        f"vertex {end}"
                    )


@dataclass(frozen=True)
class MutationStream:
    """A complete churn scenario: ordered batches over a base graph.

    Pure data — the engine and partitioners query it, never mutate it, so
    one stream prices identically under every strategy.
    """

    batches: Tuple[MutationBatch, ...] = ()
    base_vertices: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "batches", tuple(self.batches))
        for name in ("base_vertices", "seed"):
            if getattr(self, name) is not None:
                require_integer(getattr(self, name), name, StreamFormatError)
        if self.base_vertices is not None and self.base_vertices < 0:
            raise StreamError(
                f"base_vertices must be >= 0, got {self.base_vertices}"
            )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def num_batches(self) -> int:
        return len(self.batches)

    @property
    def num_ops(self) -> int:
        return sum(b.num_ops for b in self.batches)

    @property
    def is_empty(self) -> bool:
        return all(not b.ops for b in self.batches)

    def validate_for(self, num_vertices: int) -> None:
        """Reject streams referencing vertices the base graph lacks.

        Simulates vertex liveness across the whole stream (ids appended by
        ``add_vertices`` become valid; tombstoned ids become invalid until
        revived).  Edge *existence* is only checkable against a concrete
        graph and is enforced by :func:`apply_batch`.
        """
        if self.base_vertices is not None and self.base_vertices != num_vertices:
            raise StreamError(
                f"stream was generated for a base graph with "
                f"{self.base_vertices} vertices but this graph has "
                f"{num_vertices}"
            )
        state = _Liveness(num_vertices)
        for index, batch in enumerate(self.batches):
            for op in batch.ops:
                try:
                    state.check(op)
                except StreamError as exc:
                    raise StreamError(f"batch {index}: {exc}") from exc

    def replay(
        self, graph: DiGraph, live: Optional[NDArray[np.bool_]] = None
    ) -> Iterator["ApplyResult"]:
        """Apply every batch in order, yielding one result per batch."""
        for batch in self.batches:
            result = apply_batch(graph, batch, live=live)
            graph, live = result.graph, result.live
            yield result

    # ------------------------------------------------------------------ #
    # JSON persistence (CLI save/replay)
    # ------------------------------------------------------------------ #

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "format_version": STREAM_FORMAT_VERSION,
            "seed": self.seed,
            "base_vertices": self.base_vertices,
            "batches": [b.to_jsonable() for b in self.batches],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)

    def fingerprint(self) -> str:
        """Content hash of the stream (graph-memo and routing identity)."""
        return canonical_digest(self.to_jsonable())[1]

    @classmethod
    def from_jsonable(cls, payload: Any) -> "MutationStream":
        if not isinstance(payload, dict):
            raise StreamFormatError("mutation stream JSON must be an object")
        version = payload.get("format_version")
        if version != STREAM_FORMAT_VERSION:
            raise StreamFormatError(
                f"mutation stream format {version!r} is not supported "
                f"(expected {STREAM_FORMAT_VERSION})"
            )
        batches = payload.get("batches", [])
        if not isinstance(batches, list):
            raise StreamFormatError("'batches' must be a list")
        return cls(
            batches=tuple(MutationBatch.from_jsonable(b) for b in batches),
            base_vertices=payload.get("base_vertices"),
            seed=payload.get("seed"),
        )

    @classmethod
    def from_json(cls, text: str) -> "MutationStream":
        try:
            payload = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an over-long integer
            raise StreamFormatError(f"malformed mutation stream JSON: {exc}") from exc
        return cls.from_jsonable(payload)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "MutationStream":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    # ------------------------------------------------------------------ #

    def describe(self) -> Sequence[Tuple[int, str, str]]:
        """Human-readable rows (batch, kind, detail) for CLI tables."""
        rows: List[Tuple[int, str, str]] = []
        for index, batch in enumerate(self.batches):
            for op in batch.ops:
                if isinstance(op, AddVertices):
                    rows.append((index, "add_vertices", f"+{op.count} vertices"))
                elif isinstance(op, RemoveVertex):
                    rows.append((index, "remove_vertex", f"vertex {op.vertex}"))
                elif isinstance(op, ReviveVertex):
                    rows.append((index, "revive_vertex", f"vertex {op.vertex}"))
                elif isinstance(op, AddEdge):
                    rows.append((index, "add_edge", f"{op.src} -> {op.dst}"))
                else:
                    rows.append((index, "remove_edge", f"{op.src} -> {op.dst}"))
        return rows


@dataclass(frozen=True)
class ApplyResult:
    """Outcome of applying one batch to one graph.

    Attributes
    ----------
    graph:
        The mutated graph.  Canonical edge order: surviving edges keep
        their pre-batch relative order, inserted edges append at the end.
    live:
        Per-vertex liveness after the batch (read-only bool array).
    edge_origin:
        ``int64`` per new canonical edge: its index in the *pre-batch*
        canonical order, or ``-1`` for edges inserted by this batch.
    touched:
        Sorted vertex ids whose incident edge set or liveness changed.
    inverse:
        A batch that, applied to :attr:`graph`, restores the pre-batch
        live set and edge multiset (canonical order may differ; ids
        appended by ``add_vertices`` remain as dead, isolated tombstones).
    """

    graph: DiGraph
    live: NDArray[np.bool_]
    edge_origin: NDArray[np.int64]
    touched: Tuple[int, ...]
    inverse: MutationBatch

    @property
    def num_live(self) -> int:
        return int(np.count_nonzero(self.live))


def _edges_by_end(
    ends: NDArray[np.int64], vertices: List[int], num_vertices: int
) -> Dict[int, NDArray[np.int64]]:
    """Ids of the edges whose ``ends`` entry is in ``vertices``, per vertex.

    One boolean-mask pass over the edges plus a sort of the ids it
    selects; each vertex's ids are ascending (canonical order).  Ids at
    or above ``num_vertices`` have no edges and are skipped.
    """
    wanted = np.zeros(num_vertices, dtype=bool)
    wanted[[v for v in vertices if v < num_vertices]] = True
    ids = np.nonzero(wanted[ends])[0]
    if ids.size == 0:
        return {}
    ids = ids[stable_argsort(ends[ids], num_vertices)]
    keys = ends[ids]
    cuts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    heads = keys[np.concatenate(([0], cuts))].tolist()
    return dict(zip(heads, np.split(ids, cuts)))


def apply_batch(
    graph: DiGraph,
    batch: MutationBatch,
    live: Optional[NDArray[np.bool_]] = None,
) -> ApplyResult:
    """Apply one batch of mutations sequentially; raise on invalid ops.

    ``live`` carries tombstone state between batches (``None`` = all
    vertices live, the base-graph case).  Operations see the effects of
    earlier operations in the same batch.  The pre-batch edges the
    batch's removals can reach are indexed once, so a batch costs
    O(|E| + the degrees of its removal endpoints), not O(ops × |E|).
    """
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

    # Out-edges of every removal source and in-edges of every removed
    # vertex: all the pre-batch edges any op of this batch can drop.
    n = graph.num_vertices
    doomed = [op.vertex for op in batch.ops if isinstance(op, RemoveVertex)]
    sources = [op.src for op in batch.ops if isinstance(op, RemoveEdge)]
    out_edges = _edges_by_end(src, doomed + sources, n)
    in_edges = _edges_by_end(dst, doomed, n)
    no_edges = np.empty(0, dtype=np.int64)

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
            # Ascending, with a self loop (in both lists) once.
            incident = sorted_distinct(
                np.concatenate(
                    [out_edges.get(v, no_edges), in_edges.get(v, no_edges)]
                )
            )
            incident = incident[keep[incident]]
            removed: List[Tuple[int, int]] = list(
                zip(src[incident].tolist(), dst[incident].tolist())
            )
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
                candidates = out_edges.get(u, no_edges)
                candidates = candidates[
                    keep[candidates] & (dst[candidates] == w)
                ]
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
