"""Streaming execution: epochs of compute separated by mutation batches.

:class:`StreamingSystem` runs one application over an evolving graph on
the simulated clock.  Epoch 0 executes on the base graph under a full
partition; each mutation batch then lands at a superstep barrier
(batches are atomic between epochs), the incremental partitioner repairs
the placement, and the next epoch executes on the mutated graph.  The
total simulated runtime is the sum of the per-epoch makespans — exactly
what a long-running deployment pays for the stream.

A zero-batch stream degenerates to a single ordinary run: epoch 0 uses
the same materialisation, execution and pricing path as
:class:`~repro.engine.runtime.GraphProcessingSystem`, so its trace is
byte-identical to the static golden traces (pinned by the streaming
regression suite).

Delta CCR updates: with an :class:`~repro.core.online.OnlineCCRMonitor`
attached, the runner derives the initial target weights from the
monitor's pool and re-observes the cluster before every batch (free
while the composition is unchanged, per the paper's online contract).
Degradations reported to the monitor between batches re-price only the
re-placed edges — carried edges never migrate on a weight change alone.

Store-backed re-pricing comes for free: every epoch's partition and
distributed-graph lookups flow through the content-keyed kernel caches,
which PR 7 transparently backs with the summary store when attached.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.cluster.cluster import Cluster
from repro.core.online import OnlineCCRMonitor
from repro.engine.report import ExecutionReport, simulate_execution
from repro.engine.runtime import execute_partition
from repro.engine.trace import ExecutionTrace
from repro.engine.vertex_program import GraphApplication
from repro.errors import StreamError
from repro.graph.digraph import DiGraph
from repro.obs import context as obs
from repro.partition.base import Partitioner, PartitionResult
from repro.partition.metrics import weighted_imbalance
from repro.streaming.incremental import IncrementalPartitioner, StreamUpdate
from repro.streaming.mutations import MutationStream, apply_batch

__all__ = [
    "EpochLike",
    "EpochOutcome",
    "StreamingResult",
    "StreamingSystem",
]

#: Bump when the streaming-trace layout changes; readers reject others.
STREAMING_TRACE_FORMAT_VERSION = 1


class EpochReportLike(Protocol):
    """What streaming accounting needs from one epoch's priced report."""

    @property
    def runtime_seconds(self) -> float: ...

    @property
    def energy_joules(self) -> float: ...

    @property
    def num_supersteps(self) -> int: ...


class EpochUpdateLike(Protocol):
    """What streaming accounting needs from one epoch's repair record."""

    @property
    def affected_vertices(self) -> int: ...

    @property
    def reassigned_edges(self) -> int: ...

    @property
    def carried_edges(self) -> int: ...

    @property
    def moved_edges(self) -> int: ...


class EpochLike(Protocol):
    """Structural interface shared by live and checkpoint-restored epochs.

    :class:`EpochOutcome` carries the live partition/trace objects; a
    restored epoch (see :mod:`repro.streaming.recovery`) carries only its
    pre-serialized record plus the accounting scalars.  Both serialize
    through :meth:`to_record`, which is what keeps a resumed run's trace
    byte-identical to an undisturbed one.
    """

    @property
    def epoch(self) -> int: ...

    @property
    def num_machines(self) -> int: ...

    @property
    def report(self) -> EpochReportLike: ...

    @property
    def update(self) -> Optional[EpochUpdateLike]: ...

    def to_record(self) -> Dict[str, Any]: ...


@dataclass(frozen=True)
class EpochOutcome:
    """One epoch: a full execute-and-price pass over the current graph.

    ``update`` is ``None`` for epoch 0 (the base graph, no batch applied).
    """

    epoch: int
    partition: PartitionResult
    trace: ExecutionTrace
    report: ExecutionReport
    update: Optional[StreamUpdate]

    @property
    def num_machines(self) -> int:
        return self.partition.num_machines

    def to_record(self) -> Dict[str, Any]:
        """The epoch's entry in the streaming trace (deterministic)."""
        record: Dict[str, Any] = {
            "epoch": self.epoch,
            "num_edges": self.partition.graph.num_edges,
            "assignment_sha256": hashlib.sha256(
                self.partition.assignment.tobytes()
            ).hexdigest(),
            "imbalance": weighted_imbalance(self.partition),
            "runtime_seconds": self.report.runtime_seconds,
            "energy_joules": self.report.energy_joules,
            "trace": self.trace.to_jsonable(),
        }
        if self.update is not None:
            record.update(
                {
                    "affected_vertices": self.update.affected_vertices,
                    "reassigned_edges": self.update.reassigned_edges,
                    "carried_edges": self.update.carried_edges,
                    "moved_edges": self.update.moved_edges,
                }
            )
        return record


@dataclass(frozen=True)
class StreamingResult:
    """Everything produced by one streaming run.

    ``epochs`` may mix live :class:`EpochOutcome` entries with restored
    epochs stitched back from a :class:`~repro.streaming.recovery.
    StreamCheckpoint`; the trace bytes are identical either way.
    """

    app: str
    algorithm: str
    halo: int
    epochs: Tuple[EpochLike, ...]

    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    @property
    def final_partition(self) -> PartitionResult:
        last = self.epochs[-1]
        if not isinstance(last, EpochOutcome):
            raise StreamError(
                "final partition is unavailable: the last epoch was "
                "restored from a checkpoint record, not executed live"
            )
        return last.partition

    @property
    def total_runtime_seconds(self) -> float:
        return float(sum(e.report.runtime_seconds for e in self.epochs))

    @property
    def total_reassigned_edges(self) -> int:
        return sum(
            e.update.reassigned_edges for e in self.epochs if e.update is not None
        )

    @property
    def total_moved_edges(self) -> int:
        return sum(
            e.update.moved_edges for e in self.epochs if e.update is not None
        )

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-dict form of the full streaming trace (deterministic)."""
        epochs: List[Dict[str, Any]] = [e.to_record() for e in self.epochs]
        return {
            "format_version": STREAMING_TRACE_FORMAT_VERSION,
            "app": self.app,
            "algorithm": self.algorithm,
            "halo": self.halo,
            "num_machines": self.epochs[0].num_machines,
            "epochs": epochs,
            "total_runtime_seconds": self.total_runtime_seconds,
            "total_reassigned_edges": self.total_reassigned_edges,
            "total_moved_edges": self.total_moved_edges,
        }

    def trace_json(self) -> str:
        """Deterministic single-line JSON (sorted keys, fixed separators)."""
        return json.dumps(
            self.to_jsonable(), sort_keys=True, separators=(",", ":")
        )


class StreamingSystem:
    """Simulated streaming deployment of one graph application.

    Parameters
    ----------
    cluster:
        The machines every epoch executes on.
    halo:
        Boundary-expansion radius of the incremental partitioner.
    monitor:
        Optional online CCR monitor; when given it supplies the target
        weights (initially and per batch) and is re-observed before every
        batch, so degradations reported between batches steer subsequent
        re-placements.
    """

    def __init__(
        self,
        cluster: Cluster,
        halo: int = 1,
        monitor: Optional[OnlineCCRMonitor] = None,
    ):
        self.cluster = cluster
        self.halo = int(halo)
        self.monitor = monitor

    def _monitor_weights(self, app_name: str) -> Optional[np.ndarray]:
        if self.monitor is None:
            return None
        self.monitor.observe(self.cluster)
        return (
            self.monitor.pool_for(self.cluster)
            .get(app_name)
            .weights_for(self.cluster)
        )

    def run(
        self,
        app: GraphApplication,
        graph: DiGraph,
        stream: MutationStream,
        partitioner: Partitioner,
        weights: Optional[ArrayLike] = None,
    ) -> StreamingResult:
        """Execute ``app`` across the stream's epochs and price each one.

        ``weights`` sets the epoch-0 targets when no monitor is attached;
        with a monitor, the monitor's pool wins (explicit weights are
        rejected to keep the provenance of every placement unambiguous).
        """
        if self.monitor is not None and weights is not None:
            raise StreamError(
                "pass either explicit weights or a monitor, not both"
            )
        stream.validate_for(graph.num_vertices)
        incremental = IncrementalPartitioner(partitioner, halo=self.halo)
        w = self._monitor_weights(app.name) if self.monitor is not None else weights
        with obs.span(
            "stream/run",
            app=app.name,
            algorithm=partitioner.name,
            halo=self.halo,
            batches=stream.num_batches,
        ):
            partition = incremental.start(
                graph, self.cluster.num_machines, weights=w
            )
            epochs: List[EpochOutcome] = [
                self._execute_epoch(0, app, partition, update=None)
            ]
            live = None
            current = graph
            for index, batch in enumerate(stream.batches):
                with obs.span(
                    "stream/batch", batch=index, ops=batch.num_ops
                ):
                    delta = apply_batch(current, batch, live=live)
                    batch_weights = (
                        self._monitor_weights(app.name)
                        if self.monitor is not None
                        else None
                    )
                    update = incremental.apply(delta, weights=batch_weights)
                current, live = delta.graph, delta.live
                epochs.append(
                    self._execute_epoch(index + 1, app, update.result, update)
                )
        return StreamingResult(
            app=app.name,
            algorithm=partitioner.name,
            halo=self.halo,
            epochs=tuple(epochs),
        )

    def _execute_epoch(
        self,
        epoch: int,
        app: GraphApplication,
        partition: PartitionResult,
        update: Optional[StreamUpdate],
    ) -> EpochOutcome:
        with obs.span(
            "stream/epoch",
            epoch=epoch,
            app=app.name,
            edges=partition.graph.num_edges,
        ) as span:
            _, trace = execute_partition(app, partition)
            report = simulate_execution(trace, self.cluster)
            if obs.is_enabled():
                obs.gauge_set(
                    "stream.epoch_runtime_seconds",
                    report.runtime_seconds,
                    app=app.name,
                )
                span.set(
                    runtime_seconds=report.runtime_seconds,
                    supersteps=report.num_supersteps,
                )
        return EpochOutcome(
            epoch=epoch,
            partition=partition,
            trace=trace,
            report=report,
            update=update,
        )
