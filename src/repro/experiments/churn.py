"""Churn series: incremental re-partitioning vs full re-partitioning.

A streaming deployment has two costs per mutation batch: the *placement
work* of deciding where edges live (how many edges the partitioner had
to (re)place) and the *migration volume* (how many surviving edges
actually changed machines).  Re-running the partitioning algorithm from
scratch after every batch re-places all |E| edges and — for
order-dependent strategies — can reshuffle placements wholesale.  The
incremental partitioner (DESIGN.md §16) instead repairs only the
halo-expanded neighbourhood of the mutated region, carrying every other
edge unchanged.

This experiment replays one seeded churn stream through both modes for
every Case 1 partitioning algorithm and reports, per algorithm: final
weighted imbalance, cumulative placement work, migration volume and the
total simulated runtime across epochs.  The headline invariant (gated by
``tests/streaming/test_streaming_churn.py``) is that incremental placement
work is strictly below full re-partitioning's while the final imbalance
stays comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.apps.registry import make_app
from repro.engine.report import simulate_execution
from repro.engine.runtime import execute_partition
from repro.experiments.common import (
    CASE1_PARTITIONERS,
    DEFAULT_SCALE,
    attach_provenance,
    case1_cluster,
)
from repro.partition import make_partitioner
from repro.partition.metrics import weighted_imbalance
from repro.powerlaw.generator import generate_power_law_graph
from repro.streaming import MutationStream, StreamingSystem, apply_batch, generate_stream

__all__ = ["ChurnRow", "ChurnResult", "run_churn"]


@dataclass(frozen=True)
class ChurnRow:
    """One algorithm's incremental-vs-full comparison on one stream."""

    algorithm: str
    incremental_imbalance: float
    full_imbalance: float
    incremental_reassigned: int
    full_reassigned: int
    incremental_moved: int
    full_moved: int
    incremental_runtime: float
    full_runtime: float

    @property
    def work_ratio(self) -> float:
        """Placement work of incremental relative to full (< 1 is a win)."""
        return self.incremental_reassigned / self.full_reassigned


@dataclass
class ChurnResult:
    rows_list: List[ChurnRow] = field(default_factory=list)

    def headers(self):
        return (
            "algorithm",
            "imb (incr)",
            "imb (full)",
            "reassigned (incr)",
            "reassigned (full)",
            "moved (incr)",
            "moved (full)",
            "work ratio",
        )

    def rows(self):
        return [
            (
                r.algorithm,
                f"{r.incremental_imbalance:.4f}",
                f"{r.full_imbalance:.4f}",
                r.incremental_reassigned,
                r.full_reassigned,
                r.incremental_moved,
                r.full_moved,
                f"{r.work_ratio:.4f}",
            )
            for r in self.rows_list
        ]


def _full_replay(cluster, app, graph, stream, algorithm: str, seed: int):
    """Baseline: re-run the partitioning algorithm from scratch per epoch."""
    partitioner = make_partitioner(algorithm, seed=seed)
    num_machines = cluster.num_machines
    result = partitioner.partition(graph, num_machines)
    runtime = _epoch_runtime(cluster, app, result)
    prev = result.assignment
    reassigned = 0
    moved = 0
    current, live = graph, None
    for batch in stream.batches:
        delta = apply_batch(current, batch, live=live)
        result = partitioner.partition(delta.graph, num_machines)
        reassigned += delta.graph.num_edges
        survivors = delta.edge_origin >= 0
        moved += int(
            np.sum(
                result.assignment[survivors]
                != prev[delta.edge_origin[survivors]]
            )
        )
        prev = result.assignment
        runtime += _epoch_runtime(cluster, app, result)
        current, live = delta.graph, delta.live
    return result, reassigned, moved, runtime


def _epoch_runtime(cluster, app, partition) -> float:
    _, trace = execute_partition(app, partition)
    return simulate_execution(trace, cluster).runtime_seconds


def run_churn(
    scale: float = DEFAULT_SCALE,
    mutations: Optional[MutationStream] = None,
    algorithms: Sequence[str] = CASE1_PARTITIONERS,
    app: str = "pagerank",
    halo: int = 1,
    seed: int = 9,
) -> ChurnResult:
    """Compare incremental vs full re-partitioning under churn (Case 1)."""
    cluster = case1_cluster(scale)
    graph = generate_power_law_graph(
        num_vertices=max(200, round(120_000 * scale)), alpha=2.1, seed=1234
    )
    stream = (
        mutations
        if mutations is not None
        else generate_stream(
            graph, pattern="churn", num_batches=6, ops_per_batch=12, seed=seed
        )
    )
    result = ChurnResult()
    for algorithm in algorithms:
        application = make_app(app)
        system = StreamingSystem(cluster, halo=halo)
        streaming = system.run(
            application, graph, stream, make_partitioner(algorithm, seed=seed)
        )
        full_result, full_reassigned, full_moved, full_runtime = _full_replay(
            cluster, application, graph, stream, algorithm, seed
        )
        result.rows_list.append(
            ChurnRow(
                algorithm=algorithm,
                incremental_imbalance=weighted_imbalance(
                    streaming.final_partition
                ),
                full_imbalance=weighted_imbalance(full_result),
                incremental_reassigned=streaming.total_reassigned_edges,
                full_reassigned=full_reassigned,
                incremental_moved=streaming.total_moved_edges,
                full_moved=full_moved,
                incremental_runtime=streaming.total_runtime_seconds,
                full_runtime=full_runtime,
            )
        )
    return attach_provenance(
        result,
        "churn",
        scale=scale,
        app=app,
        algorithms=list(algorithms),
        halo=halo,
        seed=seed,
        stream_fingerprint=stream.fingerprint(),
    )
