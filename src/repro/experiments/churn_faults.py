"""Churn-under-faults series: checkpoint cadence and halo-size sweeps.

Two sweeps over the same seeded churn stream complete the streaming
robustness story (DESIGN.md §17):

* :func:`run_churn_faults` — a crash strikes mid-stream and the
  checkpoint interval varies.  Interval 0 is the restart-from-scratch
  baseline: no snapshots exist, so the crash replays every completed
  epoch.  Denser cadences trade a steady snapshot tax on fault-free
  epochs for shorter replays.  The headline invariant (gated by
  ``tests/streaming/test_recovery.py``) is that the recovered
  trace is byte-identical to the undisturbed run at *every* cadence —
  recovery is a pure time-and-energy bill, never a different answer.
* :func:`run_halo_sweep` — the incremental partitioner's
  boundary-expansion radius varies on a fault-free run.  A wider halo
  re-places more edges per batch (more repair work) in exchange for a
  better-conditioned placement; the sweep reports where the imbalance
  curve flattens while the repair bill keeps growing (ROADMAP: repair
  work vs imbalance as the halo grows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.apps.registry import make_app
from repro.experiments.common import (
    DEFAULT_SCALE,
    attach_provenance,
    case1_cluster,
)
from repro.faults.checkpoint import CheckpointPolicy, RetryPolicy
from repro.faults.schedule import CrashFault, FaultSchedule
from repro.partition import make_partitioner
from repro.partition.metrics import weighted_imbalance
from repro.powerlaw.generator import generate_power_law_graph
from repro.streaming import (
    MutationStream,
    ResilientStreamingSystem,
    StreamingSystem,
    generate_stream,
)

__all__ = [
    "ChurnFaultRow",
    "ChurnFaultResult",
    "HaloRow",
    "HaloSweepResult",
    "run_churn_faults",
    "run_halo_sweep",
]


@dataclass(frozen=True)
class ChurnFaultRow:
    """One checkpoint cadence's recovery bill for the same mid-stream crash."""

    interval: int
    checkpoints_taken: int
    crashes: int
    replayed_epochs: int
    checkpoint_seconds: float
    replay_seconds: float
    overhead_seconds: float
    trace_identical: bool


@dataclass
class ChurnFaultResult:
    rows_list: List[ChurnFaultRow] = field(default_factory=list)

    def headers(self):
        return (
            "interval",
            "checkpoints",
            "crashes",
            "replayed epochs",
            "snapshot (ms)",
            "replay (ms)",
            "overhead (ms)",
            "trace identical",
        )

    def rows(self):
        return [
            (
                r.interval if r.interval > 0 else "0 (restart)",
                r.checkpoints_taken,
                r.crashes,
                r.replayed_epochs,
                f"{r.checkpoint_seconds * 1e3:.3f}",
                f"{r.replay_seconds * 1e3:.3f}",
                f"{r.overhead_seconds * 1e3:.3f}",
                "yes" if r.trace_identical else "NO",
            )
            for r in self.rows_list
        ]


@dataclass(frozen=True)
class HaloRow:
    """One boundary-expansion radius on the fault-free churn stream."""

    halo: int
    reassigned_edges: int
    moved_edges: int
    final_imbalance: float
    total_runtime: float


@dataclass
class HaloSweepResult:
    rows_list: List[HaloRow] = field(default_factory=list)

    def headers(self):
        return (
            "halo",
            "reassigned E",
            "moved E",
            "final imbalance",
            "runtime (ms)",
        )

    def rows(self):
        return [
            (
                r.halo,
                r.reassigned_edges,
                r.moved_edges,
                f"{r.final_imbalance:.4f}",
                f"{r.total_runtime * 1e3:.3f}",
            )
            for r in self.rows_list
        ]


def _churn_inputs(scale: float, mutations: Optional[MutationStream], seed: int):
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
    return cluster, graph, stream


def run_churn_faults(
    scale: float = DEFAULT_SCALE,
    mutations: Optional[MutationStream] = None,
    app: str = "pagerank",
    algorithm: str = "hybrid",
    halo: int = 1,
    intervals: Sequence[int] = (0, 1, 2, 4),
    crash_machine: int = 0,
    seed: int = 9,
) -> ChurnFaultResult:
    """Recovery bill vs checkpoint cadence for one mid-stream crash."""
    cluster, graph, stream = _churn_inputs(scale, mutations, seed)
    application = make_app(app)
    # Crash mid-stream: the stream runs num_batches + 1 epochs (the
    # initial placement is epoch 0), so striking past the midpoint
    # leaves completed epochs worth replaying at sparse cadences.
    crash_epoch = (stream.num_batches + 1) // 2 + 1
    schedule = FaultSchedule(
        crashes=(CrashFault(superstep=crash_epoch, machine=crash_machine),)
    )

    baseline = StreamingSystem(cluster, halo=halo).run(
        application,
        graph,
        stream,
        make_partitioner(algorithm, seed=seed),
    )
    baseline_trace = baseline.trace_json()

    result = ChurnFaultResult()
    for interval in intervals:
        system = ResilientStreamingSystem(
            cluster,
            halo=halo,
            faults=schedule,
            checkpoint=CheckpointPolicy(interval=interval),
            retry=RetryPolicy(),
            seed=seed,
        )
        outcome = system.run_resilient(
            application,
            graph,
            stream,
            make_partitioner(algorithm, seed=seed),
        )
        result.rows_list.append(
            ChurnFaultRow(
                interval=interval,
                checkpoints_taken=outcome.recovery.checkpoints,
                crashes=outcome.recovery.crashes,
                replayed_epochs=outcome.recovery.replayed,
                checkpoint_seconds=outcome.recovery.checkpoint_seconds,
                replay_seconds=(
                    outcome.recovery.lost_seconds
                    + outcome.recovery.replay_seconds
                ),
                overhead_seconds=outcome.recovery.overhead_seconds,
                trace_identical=(
                    outcome.result.trace_json() == baseline_trace
                ),
            )
        )
    return attach_provenance(
        result,
        "churn_faults",
        scale=scale,
        app=app,
        algorithm=algorithm,
        halo=halo,
        intervals=list(intervals),
        crash_epoch=crash_epoch,
        crash_machine=crash_machine,
        seed=seed,
        stream_fingerprint=stream.fingerprint(),
    )


def run_halo_sweep(
    scale: float = DEFAULT_SCALE,
    mutations: Optional[MutationStream] = None,
    app: str = "pagerank",
    algorithm: str = "ginger",
    halos: Sequence[int] = (0, 1, 2, 3),
    seed: int = 9,
) -> HaloSweepResult:
    """Repair work vs placement quality as the halo radius grows.

    Defaults to Ginger: its greedy, order-dependent placement is the one
    whose repairs actually *move* surviving edges, so the halo knob
    trades visible repair work against a falling imbalance curve.  Hash
    partitioners re-derive identical placements under repair and show a
    flat curve regardless of halo.
    """
    cluster, graph, stream = _churn_inputs(scale, mutations, seed)
    application = make_app(app)
    result = HaloSweepResult()
    for halo in halos:
        streaming = StreamingSystem(cluster, halo=halo).run(
            application,
            graph,
            stream,
            make_partitioner(algorithm, seed=seed),
        )
        result.rows_list.append(
            HaloRow(
                halo=halo,
                reassigned_edges=streaming.total_reassigned_edges,
                moved_edges=streaming.total_moved_edges,
                final_imbalance=weighted_imbalance(streaming.final_partition),
                total_runtime=streaming.total_runtime_seconds,
            )
        )
    return attach_provenance(
        result,
        "churn_halo",
        scale=scale,
        app=app,
        algorithm=algorithm,
        halos=list(halos),
        seed=seed,
        stream_fingerprint=stream.fingerprint(),
    )
