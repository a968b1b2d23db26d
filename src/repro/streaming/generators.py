"""Seeded mutation-stream generators: churn, growth, burst.

Each generator walks the evolving graph state (live vertices plus the
current edge multiset) so every emitted operation is valid at apply time,
and every draw goes through :func:`repro.utils.rng.make_rng` in a fixed
order — the same ``(graph, pattern, sizes, seed)`` always yields the
identical stream, which is what lets the churn experiments replay one
scenario across strategies and clusters.

Patterns
--------
``churn``
    Steady-state turnover: edge inserts and removals in roughly equal
    measure, with occasional vertex departures and revivals.  Graph size
    stays about constant; placement quality decays unless repaired.
``growth``
    An expanding graph: fresh vertices plus preferential-attachment edge
    inserts (new edges prefer endpoints of existing edges, preserving the
    power-law skew), with only light edge loss.
``burst``
    Mostly quiet batches punctuated by large spikes every few batches —
    the adversarial case for incremental repair, since a spike touches a
    large boundary at once.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import StreamError
from repro.graph.digraph import DiGraph
from repro.streaming.mutations import (
    AddEdge,
    AddVertices,
    Mutation,
    MutationBatch,
    MutationStream,
    RemoveEdge,
    RemoveVertex,
    ReviveVertex,
)
from repro.utils.rng import make_rng

__all__ = ["STREAM_PATTERNS", "generate_stream"]

#: Supported pattern names, in documentation order.
STREAM_PATTERNS: Tuple[str, ...] = ("churn", "growth", "burst")


class _State:
    """Evolving graph state the generator samples from.

    Tracks exactly what op validity depends on: the live set and the edge
    multiset.  Lists are kept in deterministic order (vertices ascending,
    edges in insertion order) so index draws are reproducible.
    """

    def __init__(self, graph: DiGraph):
        self.num_vertices = graph.num_vertices
        self.live: List[bool] = [True] * graph.num_vertices
        self.edges: List[Tuple[int, int]] = [
            (int(u), int(v)) for u, v in zip(graph.src.tolist(), graph.dst.tolist())
        ]

    def live_ids(self) -> List[int]:
        return [v for v in range(self.num_vertices) if self.live[v]]

    def dead_ids(self) -> List[int]:
        return [v for v in range(self.num_vertices) if not self.live[v]]

    # Each mutator mirrors apply_batch semantics so generated ops stay valid.

    def add_vertices(self, count: int) -> None:
        self.live.extend([True] * count)
        self.num_vertices += count

    def remove_vertex(self, vertex: int) -> None:
        self.live[vertex] = False
        self.edges = [e for e in self.edges if vertex not in e]

    def revive_vertex(self, vertex: int) -> None:
        self.live[vertex] = True

    def add_edge(self, src: int, dst: int) -> None:
        self.edges.append((src, dst))

    def remove_edge(self, index: int) -> Tuple[int, int]:
        return self.edges.pop(index)


def _pick(rng: np.random.Generator, items: List[int]) -> int:
    return items[int(rng.integers(len(items)))]


def _attachment_endpoint(rng: np.random.Generator, state: _State) -> int:
    """A live vertex, biased toward high degree (endpoint of a random edge)."""
    for _ in range(8):
        if not state.edges:
            break
        u, v = state.edges[int(rng.integers(len(state.edges)))]
        pick = u if rng.random() < 0.5 else v
        if state.live[pick]:
            return pick
    return _pick(rng, state.live_ids())


def _churn_op(rng: np.random.Generator, state: _State) -> Mutation:
    roll = float(rng.random())
    if roll < 0.42 or not state.edges:
        u = _pick(rng, state.live_ids())
        v = _attachment_endpoint(rng, state)
        state.add_edge(u, v)
        return AddEdge(u, v)
    if roll < 0.86:
        u, v = state.remove_edge(int(rng.integers(len(state.edges))))
        return RemoveEdge(u, v)
    if roll < 0.93 and len(state.live_ids()) > 8:
        victim = _pick(rng, state.live_ids())
        state.remove_vertex(victim)
        return RemoveVertex(victim)
    dead = state.dead_ids()
    if roll < 0.97 and dead:
        vertex = _pick(rng, dead)
        state.revive_vertex(vertex)
        return ReviveVertex(vertex)
    count = int(rng.integers(1, 3))
    state.add_vertices(count)
    return AddVertices(count)


def _growth_op(rng: np.random.Generator, state: _State) -> Mutation:
    roll = float(rng.random())
    if roll < 0.12:
        count = int(rng.integers(1, 4))
        state.add_vertices(count)
        return AddVertices(count)
    if roll < 0.18 and state.edges:
        u, v = state.remove_edge(int(rng.integers(len(state.edges))))
        return RemoveEdge(u, v)
    u = _pick(rng, state.live_ids())
    v = _attachment_endpoint(rng, state)
    state.add_edge(u, v)
    return AddEdge(u, v)


def generate_stream(
    graph: DiGraph,
    pattern: str = "churn",
    num_batches: int = 8,
    ops_per_batch: int = 16,
    seed: int = 0,
    burst_every: int = 4,
    burst_scale: int = 3,
) -> MutationStream:
    """Sample a deterministic mutation stream against ``graph``.

    Parameters
    ----------
    pattern:
        One of :data:`STREAM_PATTERNS`.
    num_batches, ops_per_batch:
        Stream shape; for ``burst`` these set the *spike* size (quiet
        batches carry ``ops_per_batch // 4`` ops, spikes
        ``ops_per_batch * burst_scale``).
    burst_every:
        Spike period for the ``burst`` pattern (every ``k``-th batch).
    """
    if pattern not in STREAM_PATTERNS:
        raise StreamError(
            f"unknown stream pattern {pattern!r} "
            f"(expected one of {', '.join(STREAM_PATTERNS)})"
        )
    if num_batches < 0:
        raise StreamError(f"num_batches must be >= 0, got {num_batches}")
    if ops_per_batch < 1:
        raise StreamError(f"ops_per_batch must be >= 1, got {ops_per_batch}")
    if burst_every < 1:
        raise StreamError(f"burst_every must be >= 1, got {burst_every}")
    if graph.num_vertices < 2:
        raise StreamError("stream generation needs a graph with >= 2 vertices")

    rng = make_rng(seed)
    state = _State(graph)
    batches: List[MutationBatch] = []
    for index in range(num_batches):
        if pattern == "burst":
            spike = (index + 1) % burst_every == 0
            size = ops_per_batch * burst_scale if spike else max(1, ops_per_batch // 4)
            op_fn = _churn_op
        elif pattern == "growth":
            size = ops_per_batch
            op_fn = _growth_op
        else:
            size = ops_per_batch
            op_fn = _churn_op
        ops: List[Mutation] = [op_fn(rng, state) for _ in range(size)]
        batches.append(MutationBatch(tuple(ops)))
    return MutationStream(
        batches=tuple(batches), base_vertices=graph.num_vertices, seed=seed
    )
