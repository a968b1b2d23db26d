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

Target weights are set once, for epoch 0; every repair re-places edges
under the same weights, so carried edges never migrate on a weight
change.

A stream holds one epoch's graph at a time.  Each epoch keeps its
record's inputs (counts, assignment digest, imbalance, trace, report),
not its graph or partition, and once the next epoch has executed the
loop releases the replaced epoch's distributed-graph layout from the
in-process cache, unless both epochs laid out the same partition.  Only
the newest epoch's partition stays live, as
:attr:`StreamingResult.final_partition`.  Every epoch's partition
lookups still flow through the content-keyed kernel caches, which the
summary store backs when one is attached.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from repro.cluster.cluster import Cluster
from repro.engine.report import ExecutionReport, simulate_execution
from repro.engine.runtime import (
    LayoutKey,
    execute_partition,
    layout_key,
    release_layout,
)
from repro.engine.trace import ExecutionTrace
from repro.engine.vertex_program import GraphApplication
from repro.errors import RecoveryError, StreamCheckpointError, StreamError
from repro.faults.checkpoint import (
    CheckpointPolicy,
    RecoveryBill,
    RetryBudget,
    RetryPolicy,
)
from repro.faults.schedule import FaultSchedule
from repro.graph.digraph import DiGraph
from repro.kernels.cache import graph_fingerprint
from repro.obs import context as obs
from repro.partition.base import Partitioner, PartitionResult
from repro.partition.metrics import weighted_imbalance
from repro.streaming.incremental import (
    IncrementalPartitioner,
    RepairStats,
    StreamUpdate,
)
from repro.streaming.mutations import MutationStream, apply_batch
from repro.streaming.recovery import (
    CheckpointCustody,
    RestoredEpoch,
    StreamCheckpoint,
    replay_consumed_batches,
)
from repro.utils.canonical import canonical_json
from repro.utils.rng import make_rng

__all__ = [
    "EpochLike",
    "EpochOutcome",
    "StreamingResult",
    "StreamingSystem",
    "StreamRunOutcome",
]

#: Bump when the streaming-trace layout changes; readers reject others.
STREAMING_TRACE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class EpochOutcome:
    """One executed epoch, kept as the inputs of its trace record.

    An epoch holds its counts, digests, trace and report, never its
    graph or partition: a long stream keeps one epoch graph alive, not
    all of them.  ``update`` is ``None`` for epoch 0 (the base graph, no
    batch applied).
    """

    epoch: int
    num_machines: int
    num_edges: int
    assignment_sha256: str
    imbalance: float
    trace: ExecutionTrace
    report: ExecutionReport
    update: Optional[RepairStats]

    def to_record(self) -> Dict[str, Any]:
        """The epoch's entry in the streaming trace (deterministic)."""
        record: Dict[str, Any] = {
            "epoch": self.epoch,
            "num_edges": self.num_edges,
            "assignment_sha256": self.assignment_sha256,
            "imbalance": self.imbalance,
            "runtime_seconds": self.report.runtime_seconds,
            "energy_joules": self.report.energy_joules,
            "trace": self.trace.to_jsonable(),
        }
        if self.update is not None:
            record.update(dataclasses.asdict(self.update))
        return record


#: A live epoch or one stitched back from a checkpoint's record; both
#: serialize through ``to_record``, which is what keeps a resumed run's
#: trace byte-identical to an undisturbed one.
EpochLike = Union[EpochOutcome, RestoredEpoch]


@dataclass(frozen=True)
class StreamingResult:
    """Everything produced by one streaming run.

    ``epochs`` may mix live :class:`EpochOutcome` entries with restored
    epochs stitched back from a :class:`~repro.streaming.recovery.
    StreamCheckpoint`; the trace bytes are identical either way.
    ``last_partition`` is the live partition of the last epoch, or
    ``None`` when that epoch was restored.
    """

    app: str
    algorithm: str
    halo: int
    epochs: Tuple[EpochLike, ...]
    last_partition: Optional[PartitionResult] = field(
        default=None, compare=False, repr=False
    )

    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    @property
    def final_partition(self) -> PartitionResult:
        if self.last_partition is None:
            raise StreamError(
                "final partition is unavailable: the last epoch was "
                "restored from a checkpoint record, not executed live"
            )
        return self.last_partition

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
        return canonical_json(self.to_jsonable())


@dataclass(frozen=True)
class StreamRunOutcome:
    """A streaming run: the pure result plus the recovery bill."""

    result: StreamingResult
    recovery: RecoveryBill


class StreamingSystem:
    """Simulated streaming deployment of one graph application.

    Parameters
    ----------
    cluster:
        The machines every epoch executes on.
    halo:
        Boundary-expansion radius of the incremental partitioner.
    faults:
        Optional crash-only :class:`~repro.faults.FaultSchedule`; a
        :class:`~repro.faults.CrashFault`'s ``superstep`` indexes the
        *epoch* it strikes (the streaming barrier), and ``repeats`` makes
        the same epoch fail again on replay.  Slowdown and network
        faults need the per-superstep pricing walk and are rejected.
    checkpoint:
        Snapshot cadence and cost model; ``None`` (or ``interval=0``)
        takes no snapshots, so a crash replays from the beginning.  The
        policy's ``restart_seconds`` prices every restart either way.
    retry:
        Bounded-restart policy per crash site (epoch); exhausting it
        raises :class:`~repro.errors.RecoveryError`.
    seed:
        Seeds the backoff jitter RNG (deterministic recovery bill).
    custody, job_id:
        Optional shared :class:`~repro.streaming.recovery.
        CheckpointCustody` and the job it files snapshots under.  Every
        snapshot is recorded there, and a run whose custody already
        holds one for ``job_id`` resumes from it: the federation wires
        one custody per replay so shard failover continues mid-stream.

    With every recovery setting left at its default the epoch loop takes
    no snapshots and injects no crashes.
    """

    def __init__(
        self,
        cluster: Cluster,
        halo: int = 1,
        faults: Optional[FaultSchedule] = None,
        checkpoint: Optional[CheckpointPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        custody: Optional[CheckpointCustody] = None,
        job_id: Optional[str] = None,
    ):
        if faults is not None:
            if faults.slowdowns or faults.network_faults:
                raise StreamError(
                    "streaming fault schedules support crash faults only; "
                    "slowdown/network faults need the per-superstep "
                    "pricing walk of a static run"
                )
            faults.validate_for(cluster.num_machines)
        self.cluster = cluster
        self.halo = int(halo)
        self.faults = faults
        self.checkpoint = (
            checkpoint if checkpoint is not None else CheckpointPolicy(interval=0)
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.seed = int(seed)
        self.custody = custody
        self.job_id = job_id

    def run(
        self,
        app: GraphApplication,
        graph: DiGraph,
        stream: MutationStream,
        partitioner: Partitioner,
        weights: Optional[ArrayLike] = None,
    ) -> StreamingResult:
        """Execute ``app`` across the stream's epochs and price each one.

        ``weights`` sets the epoch-0 targets (``None`` = uniform); every
        repair keeps them.  The result of :meth:`run_resilient`, without
        its recovery bill.
        """
        return self.run_resilient(app, graph, stream, partitioner, weights).result

    def run_resilient(
        self,
        app: GraphApplication,
        graph: DiGraph,
        stream: MutationStream,
        partitioner: Partitioner,
        weights: Optional[ArrayLike] = None,
    ) -> StreamRunOutcome:
        """Run the stream under the recovery settings; return result and bill.

        The returned result's trace is byte-identical to an undisturbed
        :meth:`run` of the same inputs — crashes cost time (in the
        recovery bill), never bytes.  When the custody holds a snapshot
        for ``job_id``, consumed batches are replayed structurally, the
        partitioner state is restored, and only the remaining
        epochs execute; the completed prefix is stitched from the
        checkpoint's records.  This is the one epoch loop; its crash,
        snapshot and resume hooks act only on the recovery settings.
        """
        faults, checkpoint = self.faults, self.checkpoint
        custody, job_id = self.custody, self.job_id
        resume = (
            custody.latest(job_id)
            if custody is not None and job_id is not None
            else None
        )
        stream.validate_for(graph.num_vertices)
        incremental = IncrementalPartitioner(partitioner, halo=self.halo)
        budget = RetryBudget(self.retry, make_rng(self.seed))

        bill = RecoveryBill(unit="epoch")
        epochs: List[EpochLike] = []
        #: Records of ``epochs[:len(records)]``, each built once; the last
        #: snapshot taken (or resumed from) hands its record encodings on.
        records: List[Mapping[str, Any]] = []
        previous: Optional[StreamCheckpoint] = None
        clock = 0.0
        #: Epoch index of the last durable snapshot (-1 = none: replay
        #: from scratch).
        last_durable = -1
        #: Content identities of the base graph and the stream, computed
        #: only when a snapshot or a resume needs them.
        identity: List[str] = []

        def fingerprints() -> List[str]:
            if not identity:
                identity.extend((graph_fingerprint(graph), stream.fingerprint()))
            return identity

        def handle_crashes(epoch: int) -> None:
            if faults is None:
                return
            runtime = epochs[epoch].report.runtime_seconds
            for crash in faults.crashes_at(epoch):
                for _ in range(crash.repeats):
                    attempt = budget.restart(epoch)
                    if budget.exhausted(attempt):
                        raise RecoveryError(
                            f"stream epoch {epoch} crashed {attempt} "
                            f"time(s), exceeding the retry budget of "
                            f"{self.retry.max_retries}"
                        )
                    # The in-progress epoch's work is destroyed, plus
                    # every completed epoch since the last durable
                    # snapshot must re-execute (deterministically, so
                    # the replay changes time, never bytes).
                    span = range(last_durable + 1, epoch)
                    bill.crashes += 1
                    bill.lost_seconds += runtime
                    bill.replay_seconds += sum(
                        epochs[i].report.runtime_seconds for i in span
                    )
                    bill.replayed += len(span) + 1
                    bill.restart_seconds += checkpoint.restart_seconds
                    bill.backoff_seconds += budget.pause(attempt)
                    if obs.is_enabled():
                        obs.counter_add("stream.crashes", 1.0)
                        obs.event(
                            "stream/crash",
                            epoch=epoch,
                            machine=crash.machine,
                            attempt=attempt,
                            replay_from=last_durable + 1,
                        )

        def maybe_checkpoint(epoch: int) -> None:
            nonlocal last_durable, previous
            if not checkpoint.is_checkpoint_step(epoch):
                return
            records.extend(e.to_record() for e in epochs[len(records):])
            snapshot = self._capture(
                app, partitioner, *fingerprints(),
                cursor=epoch, clock_s=clock, records=records,
                previous=previous, result=incremental.result,
            )
            cost = checkpoint.checkpoint_seconds(float(snapshot.state_bytes()))
            previous = snapshot
            bill.checkpoints += 1
            bill.checkpoint_seconds += cost
            last_durable = epoch
            if custody is not None and job_id is not None:
                custody.record(
                    job_id,
                    snapshot,
                    durable_at_s=clock + bill.overhead_seconds,
                )
            if obs.is_enabled():
                obs.counter_add("stream.checkpoints", 1.0)
                obs.event(
                    "stream/checkpoint",
                    epoch=epoch,
                    cursor=epoch,
                    cost_s=cost,
                    fingerprint=snapshot.fingerprint()[:12],
                )

        #: Layout key of the newest epoch executed in this run (``None``
        #: until one has executed).
        held: Optional[LayoutKey] = None

        def execute(
            epoch: int,
            partition: PartitionResult,
            update: Optional[StreamUpdate],
        ) -> None:
            nonlocal clock, held
            key = layout_key(partition)
            outcome = self._execute_epoch(epoch, app, partition, key, update)
            # The replaced epoch's layout is never asked for again, unless
            # this epoch laid out the same partition (an empty batch).
            if held is not None and held != key:
                release_layout(held)
            held = key
            epochs.append(outcome)
            clock += outcome.report.runtime_seconds
            handle_crashes(outcome.epoch)
            maybe_checkpoint(outcome.epoch)

        with obs.span(
            "stream/run",
            app=app.name,
            algorithm=partitioner.name,
            halo=self.halo,
            batches=stream.num_batches,
        ):
            if resume is not None:
                current, live = self._resume(
                    resume, app, graph, stream, partitioner,
                    incremental, fingerprints(),
                )
                epochs.extend(resume.restored_epochs())
                records.extend(resume.epoch_records)
                previous = resume
                clock = resume.clock_s
                last_durable = resume.batch_cursor
                bill.resumed_from_batch = resume.batch_cursor
                start_index = resume.batch_cursor
            else:
                execute(
                    0,
                    incremental.start(
                        graph, self.cluster.num_machines, weights=weights
                    ),
                    None,
                )
                current, live = graph, None
                start_index = 0

            for index in range(start_index, stream.num_batches):
                batch = stream.batches[index]
                with obs.span(
                    "stream/batch", batch=index, ops=batch.num_ops
                ):
                    delta = apply_batch(current, batch, live=live)
                    update = incremental.apply(delta)
                current, live = delta.graph, delta.live
                execute(index + 1, update.result, update)

        result = StreamingResult(
            app=app.name,
            algorithm=partitioner.name,
            halo=self.halo,
            epochs=tuple(epochs),
            # The partition the last live epoch executed; none when every
            # epoch was restored from the snapshot.
            last_partition=None if held is None else incremental.result,
        )
        return StreamRunOutcome(result=result, recovery=bill)

    def _resume(
        self,
        checkpoint: StreamCheckpoint,
        app: GraphApplication,
        graph: DiGraph,
        stream: MutationStream,
        partitioner: Partitioner,
        incremental: IncrementalPartitioner,
        fingerprints: List[str],
    ) -> Tuple[DiGraph, Optional[Any]]:
        """Validate a snapshot and restore the loop's carried state.

        Returns the ``(graph, live)`` pair ready for the snapshot's batch
        cursor.
        """
        expected = {
            "app": (checkpoint.app, app.name),
            "algorithm": (checkpoint.algorithm, partitioner.name),
            "halo": (checkpoint.halo, self.halo),
            "num_machines": (
                checkpoint.num_machines, self.cluster.num_machines
            ),
            "graph_fingerprint": (
                checkpoint.graph_fingerprint, fingerprints[0]
            ),
            "stream_fingerprint": (
                checkpoint.stream_fingerprint, fingerprints[1]
            ),
        }
        for name, (recorded, actual) in sorted(expected.items()):
            if recorded != actual:
                raise StreamCheckpointError(
                    f"checkpoint {name} mismatch: snapshot has "
                    f"{recorded!r}, the resuming run has {actual!r}"
                )
        if checkpoint.batch_cursor > stream.num_batches:
            raise StreamCheckpointError(
                f"checkpoint cursor {checkpoint.batch_cursor} beyond the "
                f"stream's {stream.num_batches} batch(es)"
            )
        current, live = replay_consumed_batches(
            graph, stream, checkpoint.batch_cursor
        )
        assignment = np.asarray(checkpoint.assignment, dtype=np.int32)
        if assignment.shape != (current.num_edges,):
            raise StreamCheckpointError(
                f"checkpoint assignment covers {assignment.shape[0]} edges "
                f"but the replayed graph has {current.num_edges}"
            )
        incremental.restore(
            PartitionResult(
                graph=current,
                assignment=assignment,
                num_machines=checkpoint.num_machines,
                algorithm=checkpoint.partition_algorithm,
                weights=np.asarray(checkpoint.weights, dtype=np.float64),
            ),
            checkpoint.batch_cursor,
        )
        if obs.is_enabled():
            obs.counter_add("stream.resumes", 1.0)
            obs.event(
                "stream/resume",
                cursor=checkpoint.batch_cursor,
                fingerprint=checkpoint.fingerprint()[:12],
            )
        return current, live

    def _capture(
        self,
        app: GraphApplication,
        partitioner: Partitioner,
        graph_fp: str,
        stream_fp: str,
        cursor: int,
        clock_s: float,
        records: List[Mapping[str, Any]],
        previous: Optional[StreamCheckpoint],
        result: PartitionResult,
    ) -> StreamCheckpoint:
        snapshot = StreamCheckpoint(
            app=app.name,
            algorithm=partitioner.name,
            partition_algorithm=result.algorithm,
            halo=self.halo,
            num_machines=result.num_machines,
            graph_fingerprint=graph_fp,
            stream_fingerprint=stream_fp,
            batch_cursor=cursor,
            clock_s=clock_s,
            epoch_records=tuple(records),
            assignment=tuple(result.assignment.tolist()),
            weights=tuple(float(w) for w in result.weights),
        )
        if previous is not None:
            snapshot.share_encodings(previous)
        return snapshot

    def _execute_epoch(
        self,
        epoch: int,
        app: GraphApplication,
        partition: PartitionResult,
        key: LayoutKey,
        update: Optional[StreamUpdate],
    ) -> EpochOutcome:
        with obs.span(
            "stream/epoch",
            epoch=epoch,
            app=app.name,
            edges=partition.graph.num_edges,
        ) as span:
            _, trace = execute_partition(app, partition, key)
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
            num_machines=partition.num_machines,
            num_edges=partition.graph.num_edges,
            assignment_sha256=key[1],
            imbalance=(
                weighted_imbalance(partition)
                if update is None
                else update.imbalance
            ),
            trace=trace,
            report=report,
            update=None if update is None else update.stats,
        )


#: Former name of :class:`StreamingSystem`, kept only for the frozen
#: benchmark harness; the next change to the benchmark drops it.
ResilientStreamingSystem = StreamingSystem
