"""Fault-tolerant streaming: checkpoints, crash replay and resume.

PR 9's :class:`~repro.streaming.runner.StreamingSystem` refuses fault
schedules: a crash mid-stream would have destroyed the incremental
partitioner's carried state and with it the byte-identical replay
contract.  This module closes that gap with three pieces:

* :class:`StreamCheckpoint` — a versioned, canonical-JSON,
  sha256-fingerprinted snapshot of everything a streaming run needs to
  continue after a crash: the batch cursor, the simulated clock, the
  serialized records of every completed epoch, the incremental
  partitioner's assignment + target weights, and the
  :class:`~repro.core.online.OnlineCCRMonitor` deltas.  The graph itself
  is *not* serialized: consumed batches are pure data and are replayed
  structurally on restore, which is cheap and exactly-once by
  construction (no epoch is ever re-priced into the trace).
* :class:`CheckpointCustody` — the durable side.  It tracks, per job,
  which checkpoints had hit disk by any given instant (the federation
  seals the set at a shard-crash time) and optionally persists every
  snapshot through :mod:`repro.store` under the ``stream_checkpoint``
  namespace, inheriting the store's per-row sha256 verification and
  quarantine-and-recompute contract.
* :class:`ResilientStreamingSystem` — the runner.  Crash faults from the
  PR 1 :class:`~repro.faults.FaultSchedule` strike *epochs* (the
  streaming analogue of a superstep barrier): a crash destroys the
  in-progress epoch plus every completed epoch since the last durable
  checkpoint, and the run replays them under the bounded
  :class:`~repro.faults.RetryPolicy` with seeded backoff.  Because the
  epochs are deterministic, replayed work re-produces identical bytes —
  so recovery is priced into a separate :class:`StreamRecoveryReport`
  and the :class:`~repro.streaming.runner.StreamingResult` trace stays
  byte-identical to an undisturbed run.  That invariant is what the
  federation failover path and the PR 10 bench gate pin.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np
from numpy.typing import ArrayLike

from repro.cluster.cluster import Cluster
from repro.core.online import OnlineCCRMonitor
from repro.engine.vertex_program import GraphApplication
from repro.errors import (
    RecoveryError,
    StreamCheckpointError,
    StreamError,
)
from repro.faults.checkpoint import CheckpointPolicy, RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.graph.digraph import DiGraph
from repro.kernels.cache import graph_fingerprint
from repro.obs import context as obs
from repro.partition.base import Partitioner, PartitionResult
from repro.streaming.incremental import IncrementalPartitioner
from repro.streaming.mutations import MutationStream, apply_batch
from repro.streaming.runner import (
    EpochLike,
    StreamingResult,
    StreamingSystem,
)
from repro.utils.rng import make_rng

if TYPE_CHECKING:
    from repro.store.store import SummaryStore

__all__ = [
    "STREAM_CHECKPOINT_FORMAT_VERSION",
    "CHECKPOINT_NAMESPACE",
    "StreamCheckpoint",
    "RestoredEpoch",
    "CheckpointCustody",
    "StreamRecoveryReport",
    "StreamRunOutcome",
    "ResilientStreamingSystem",
    "replay_consumed_batches",
]

#: Bump when the checkpoint layout changes; readers reject other versions.
STREAM_CHECKPOINT_FORMAT_VERSION = 1

#: Summary-store namespace holding persisted checkpoints.
CHECKPOINT_NAMESPACE = "stream_checkpoint"


def _canonical(value: Any) -> str:
    """Canonical JSON of one value: sorted keys, fixed separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------- #
# Restored epochs
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class _RestoredReport:
    """Accounting view of a checkpointed epoch's priced report."""

    runtime_seconds: float
    energy_joules: float
    num_supersteps: int


@dataclass(frozen=True)
class _RestoredUpdate:
    """Accounting view of a checkpointed epoch's repair record."""

    affected_vertices: int
    reassigned_edges: int
    carried_edges: int
    moved_edges: int


@dataclass(frozen=True)
class RestoredEpoch:
    """An epoch stitched back from a checkpoint's serialized record.

    Satisfies :class:`~repro.streaming.runner.EpochLike`: it serializes
    to exactly the record the live epoch produced (so the stitched trace
    is byte-identical) and exposes the accounting scalars the service
    and :class:`~repro.streaming.runner.StreamingResult` totals read.
    The live partition/trace objects are gone — that is the point of a
    checkpoint — so anything needing them must come from a live epoch.
    """

    epoch: int
    num_machines: int
    record: Mapping[str, Any]
    report: _RestoredReport
    update: Optional[_RestoredUpdate]

    def to_record(self) -> Dict[str, Any]:
        return dict(self.record)

    @classmethod
    def from_record(
        cls, record: Mapping[str, Any], num_machines: int
    ) -> "RestoredEpoch":
        try:
            update: Optional[_RestoredUpdate] = None
            if "reassigned_edges" in record:
                update = _RestoredUpdate(
                    affected_vertices=int(record["affected_vertices"]),
                    reassigned_edges=int(record["reassigned_edges"]),
                    carried_edges=int(record["carried_edges"]),
                    moved_edges=int(record["moved_edges"]),
                )
            return cls(
                epoch=int(record["epoch"]),
                num_machines=int(num_machines),
                record=record,
                report=_RestoredReport(
                    runtime_seconds=float(record["runtime_seconds"]),
                    energy_joules=float(record["energy_joules"]),
                    num_supersteps=len(record["trace"]["supersteps"]),
                ),
                update=update,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StreamCheckpointError(
                f"malformed epoch record in checkpoint: {exc}"
            ) from exc


# ---------------------------------------------------------------------- #
# The checkpoint
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class StreamCheckpoint:
    """Everything a streaming run needs to continue after a crash.

    Attributes
    ----------
    app, algorithm, halo, num_machines:
        Run identity: application name, *base* partitioner name and the
        incremental partitioner's boundary-expansion radius.  A resume
        with any of these different is rejected.
    partition_algorithm:
        The ``algorithm`` field of the checkpointed
        :class:`~repro.partition.base.PartitionResult` (carried so the
        restored result is field-identical to the lost one).
    graph_fingerprint, stream_fingerprint:
        Content identities of the *base* graph and the mutation stream.
    batch_cursor:
        Batches consumed so far; epochs completed = ``batch_cursor + 1``.
    clock_s:
        Productive simulated seconds of the completed epochs (recovery
        overhead is accounted separately and never snapshotted).
    epoch_records:
        The serialized trace record of every completed epoch, verbatim —
        what makes a stitched resume byte-identical.
    assignment, weights:
        The incremental partitioner's carried state: the current edge
        assignment and the normalized target weights.
    monitor:
        Optional :meth:`~repro.core.online.OnlineCCRMonitor.state_dict`
        snapshot (``None`` when the run has no monitor attached).
    """

    app: str
    algorithm: str
    partition_algorithm: str
    halo: int
    num_machines: int
    graph_fingerprint: str
    stream_fingerprint: str
    batch_cursor: int
    clock_s: float
    epoch_records: Tuple[Mapping[str, Any], ...]
    assignment: Tuple[int, ...]
    weights: Tuple[float, ...]
    monitor: Optional[Mapping[str, Any]] = None
    format_version: int = STREAM_CHECKPOINT_FORMAT_VERSION
    #: Memoised encodings (the checkpoint is immutable): the canonical JSON
    #: of a prefix of ``epoch_records`` (all of them once
    #: :meth:`record_json` has run), and of the whole snapshot.
    _record_json: Tuple[str, ...] = field(
        default=(), init=False, repr=False, compare=False
    )
    _text: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.format_version != STREAM_CHECKPOINT_FORMAT_VERSION:
            raise StreamCheckpointError(
                f"unsupported stream checkpoint format "
                f"{self.format_version!r} (this library reads "
                f"{STREAM_CHECKPOINT_FORMAT_VERSION})"
            )
        if self.batch_cursor < 0:
            raise StreamCheckpointError(
                f"batch_cursor must be >= 0, got {self.batch_cursor}"
            )
        if len(self.epoch_records) != self.batch_cursor + 1:
            raise StreamCheckpointError(
                f"checkpoint at cursor {self.batch_cursor} must carry "
                f"{self.batch_cursor + 1} epoch records, got "
                f"{len(self.epoch_records)}"
            )
        if self.halo < 0:
            raise StreamCheckpointError(
                f"halo must be >= 0, got {self.halo}"
            )
        if self.num_machines < 1:
            raise StreamCheckpointError(
                f"num_machines must be >= 1, got {self.num_machines}"
            )
        if len(self.weights) != self.num_machines:
            raise StreamCheckpointError(
                f"checkpoint carries {len(self.weights)} weights for "
                f"{self.num_machines} machines"
            )

    # ------------------------------------------------------------------ #

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "format_version": self.format_version,
            "app": self.app,
            "algorithm": self.algorithm,
            "partition_algorithm": self.partition_algorithm,
            "halo": self.halo,
            "num_machines": self.num_machines,
            "graph_fingerprint": self.graph_fingerprint,
            "stream_fingerprint": self.stream_fingerprint,
            "batch_cursor": self.batch_cursor,
            "clock_s": self.clock_s,
            "epoch_records": [dict(r) for r in self.epoch_records],
            "assignment": list(self.assignment),
            "weights": list(self.weights),
            "monitor": (
                dict(self.monitor) if self.monitor is not None else None
            ),
        }

    def record_json(self) -> Tuple[str, ...]:
        """Canonical JSON of each epoch record, parallel to ``epoch_records``.

        Computed on first use for the records not yet encoded.  A live run
        hands each snapshot the encodings of its predecessor, so every
        epoch is encoded once per run; a checkpoint loaded by
        :meth:`from_jsonable` starts with none.
        """
        fragments = self._record_json
        if len(fragments) < len(self.epoch_records):
            fragments += tuple(
                _canonical(r) for r in self.epoch_records[len(fragments):]
            )
            object.__setattr__(self, "_record_json", fragments)
        return fragments

    def canonical_json(self) -> str:
        """Deterministic single-line JSON (sorted keys, fixed separators).

        The bytes of ``json.dumps(to_jsonable(), sort_keys=True,
        separators=(",", ":"))``, built once per checkpoint by splicing
        :meth:`record_json` into the sorted top-level object;
        :meth:`fingerprint`, :meth:`state_bytes` and the store row all
        share the text.
        """
        text = self._text
        if text is None:
            doc = self.to_jsonable()
            records = "[" + ",".join(self.record_json()) + "]"
            text = "{" + ",".join(
                _canonical(key) + ":"
                + (records if key == "epoch_records" else _canonical(doc[key]))
                for key in sorted(doc)
            ) + "}"
            object.__setattr__(self, "_text", text)
        return text

    def fingerprint(self) -> str:
        """sha256 of the canonical JSON — the checkpoint's identity."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")
        ).hexdigest()

    def state_bytes(self) -> int:
        """Snapshot size the checkpoint cost model charges for."""
        return len(self.canonical_json().encode("utf-8"))

    def checkpoint_key(self, job_id: str) -> str:
        """Canonical summary-store key text for one persisted snapshot."""
        return (
            f"{CHECKPOINT_NAMESPACE}:v{self.format_version}:"
            f"job={job_id}:app={self.app}:algo={self.algorithm}:"
            f"halo={self.halo}:m={self.num_machines}:"
            f"graph={self.graph_fingerprint}:"
            f"stream={self.stream_fingerprint}:cursor={self.batch_cursor}"
        )

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "StreamCheckpoint":
        if not isinstance(payload, Mapping):
            raise StreamCheckpointError("checkpoint payload must be an object")
        version = payload.get("format_version")
        if version != STREAM_CHECKPOINT_FORMAT_VERSION:
            raise StreamCheckpointError(
                f"unsupported stream checkpoint format {version!r} "
                f"(this library reads {STREAM_CHECKPOINT_FORMAT_VERSION})"
            )
        known = {
            "format_version", "app", "algorithm", "partition_algorithm",
            "halo", "num_machines", "graph_fingerprint",
            "stream_fingerprint", "batch_cursor", "clock_s",
            "epoch_records", "assignment", "weights", "monitor",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise StreamCheckpointError(
                f"unknown checkpoint fields {unknown}"
            )
        try:
            return cls(
                format_version=int(payload["format_version"]),
                app=str(payload["app"]),
                algorithm=str(payload["algorithm"]),
                partition_algorithm=str(payload["partition_algorithm"]),
                halo=int(payload["halo"]),
                num_machines=int(payload["num_machines"]),
                graph_fingerprint=str(payload["graph_fingerprint"]),
                stream_fingerprint=str(payload["stream_fingerprint"]),
                batch_cursor=int(payload["batch_cursor"]),
                clock_s=float(payload["clock_s"]),
                epoch_records=tuple(payload["epoch_records"]),
                assignment=tuple(
                    int(a) for a in payload["assignment"]
                ),
                weights=tuple(float(w) for w in payload["weights"]),
                monitor=payload.get("monitor"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StreamCheckpointError(
                f"malformed checkpoint payload: {exc}"
            ) from exc

    def restored_epochs(self) -> Tuple[RestoredEpoch, ...]:
        """The completed epochs as stitchable :class:`RestoredEpoch`\\ s."""
        return tuple(
            RestoredEpoch.from_record(record, self.num_machines)
            for record in self.epoch_records
        )


# ---------------------------------------------------------------------- #
# Custody (durability + federation failover)
# ---------------------------------------------------------------------- #


class CheckpointCustody:
    """Durable-checkpoint custody, shared by every federation shard.

    Tracks ``(durable_at_s, checkpoint)`` pairs per job, where the time
    is *relative to the owning run's start* on the simulated clock.  At a
    shard crash the federation :meth:`seal`\\ s the set at the crash
    offset — snapshots still being written when the shard died are
    dropped — and the adopting shard resumes from :meth:`latest`.  With a
    :class:`~repro.store.store.SummaryStore` attached every snapshot is
    also persisted under the ``stream_checkpoint`` namespace (per-row
    sha256 verification and quarantine-and-recompute included), so a
    process restart can re-hydrate custody from disk.
    """

    def __init__(self, store: Optional["SummaryStore"] = None):
        self._store = store
        self._entries: Dict[str, List[Tuple[float, StreamCheckpoint]]] = {}

    @property
    def store(self) -> Optional["SummaryStore"]:
        return self._store

    def record(
        self, job_id: str, checkpoint: StreamCheckpoint, durable_at_s: float
    ) -> None:
        """One snapshot hit disk ``durable_at_s`` seconds into the run."""
        self._entries.setdefault(job_id, []).append(
            (float(durable_at_s), checkpoint)
        )
        if self._store is not None:
            from repro.store.codecs import CODECS

            self._store.put(
                CHECKPOINT_NAMESPACE,
                checkpoint.checkpoint_key(job_id),
                CODECS[CHECKPOINT_NAMESPACE].encode(checkpoint),
            )

    def latest(self, job_id: str) -> Optional[StreamCheckpoint]:
        """The most recent recorded (or sealed) snapshot for one job."""
        entries = self._entries.get(job_id)
        return entries[-1][1] if entries else None

    def seal(
        self, job_id: str, cutoff_s: float
    ) -> Optional[StreamCheckpoint]:
        """Freeze custody at a crash: drop snapshots not yet durable.

        Keeps only checkpoints with ``durable_at_s <= cutoff_s`` and
        collapses them to the latest survivor, which is re-timed as
        already durable (a later crash of the adopting shard must not
        re-judge it against the *new* run's clock).  Returns the
        survivor, or ``None`` when the job has no durable snapshot and
        failover must restart the stream from scratch.
        """
        entries = self._entries.get(job_id, [])
        durable = [(t, c) for t, c in entries if t <= cutoff_s]
        if not durable:
            self._entries.pop(job_id, None)
            return None
        survivor = durable[-1][1]
        self._entries[job_id] = [(-1.0, survivor)]
        return survivor

    def clear(self, job_id: str) -> None:
        """Drop custody after the job's terminal record is committed."""
        self._entries.pop(job_id, None)

    def fetch(self, key_text: str) -> Optional[StreamCheckpoint]:
        """Re-hydrate one persisted snapshot from the attached store.

        Returns ``None`` on a miss *or* a quarantined row (the store
        verifies the payload sha256 and quarantines mismatches and
        undecodable payloads); the caller recomputes.
        """
        if self._store is None:
            return None
        from repro.store.codecs import CODECS

        decoded = self._store.get_decoded(
            CHECKPOINT_NAMESPACE, key_text, CODECS[CHECKPOINT_NAMESPACE]
        )
        if decoded is None:
            return None
        return StreamCheckpoint.from_jsonable(decoded)


# ---------------------------------------------------------------------- #
# Recovery accounting
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class StreamRecoveryReport:
    """What fault tolerance cost one streaming run (the tenant's bill).

    Everything here is *overhead on top of* the productive runtime in the
    streaming trace; the trace itself carries no recovery artifacts, so a
    disturbed run's trace stays byte-identical to an undisturbed one.
    """

    crashes: int
    replayed_epochs: int
    checkpoints_taken: int
    lost_seconds: float
    replay_seconds: float
    restart_seconds: float
    backoff_seconds: float
    checkpoint_seconds: float
    resumed_from_batch: Optional[int] = None

    @property
    def overhead_seconds(self) -> float:
        return (
            self.lost_seconds
            + self.replay_seconds
            + self.restart_seconds
            + self.backoff_seconds
            + self.checkpoint_seconds
        )

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "crashes": self.crashes,
            "replayed_epochs": self.replayed_epochs,
            "checkpoints_taken": self.checkpoints_taken,
            "lost_seconds": self.lost_seconds,
            "replay_seconds": self.replay_seconds,
            "restart_seconds": self.restart_seconds,
            "backoff_seconds": self.backoff_seconds,
            "checkpoint_seconds": self.checkpoint_seconds,
            "overhead_seconds": self.overhead_seconds,
            "resumed_from_batch": self.resumed_from_batch,
        }


@dataclass(frozen=True)
class StreamRunOutcome:
    """A resilient streaming run: the pure result plus the recovery bill."""

    result: StreamingResult
    recovery: StreamRecoveryReport


# ---------------------------------------------------------------------- #
# Structural batch replay
# ---------------------------------------------------------------------- #


def replay_consumed_batches(
    graph: DiGraph, stream: MutationStream, cursor: int
) -> Tuple[DiGraph, Optional[Any]]:
    """Re-derive the mutated graph after ``cursor`` batches, structurally.

    Batches are pure data, so this is cheap and has no pricing footprint:
    no epoch executes, nothing is re-charged — the exactly-once half of
    the resume contract.  Returns ``(graph, live)`` ready for batch
    ``cursor``.
    """
    if cursor < 0 or cursor > stream.num_batches:
        raise StreamCheckpointError(
            f"batch cursor {cursor} outside the stream's "
            f"{stream.num_batches} batch(es)"
        )
    current = graph
    live: Optional[Any] = None
    for index in range(cursor):
        delta = apply_batch(current, stream.batches[index], live=live)
        current, live = delta.graph, delta.live
    return current, live


# ---------------------------------------------------------------------- #
# The resilient runner
# ---------------------------------------------------------------------- #


class ResilientStreamingSystem(StreamingSystem):
    """A :class:`StreamingSystem` that survives seeded crash faults.

    Parameters
    ----------
    cluster, halo, monitor:
        As for :class:`~repro.streaming.runner.StreamingSystem`.
    faults:
        Optional crash-only :class:`~repro.faults.FaultSchedule`; a
        :class:`~repro.faults.CrashFault`'s ``superstep`` indexes the
        *epoch* it strikes (the streaming barrier), and ``repeats`` makes
        the same epoch fail again on replay.  Slowdown and network
        faults need the per-superstep pricing walk and are rejected.
    checkpoint:
        Snapshot cadence + cost model; ``interval=0`` disables snapshots
        (a crash then replays from the beginning).  The policy's
        ``restart_seconds`` prices every restart either way.
    retry:
        Bounded-restart policy per crash site (epoch); exhausting it
        raises :class:`~repro.errors.RecoveryError`.
    seed:
        Seeds the backoff jitter RNG (deterministic recovery bill).
    custody, job_id:
        Optional shared :class:`CheckpointCustody` sink — the federation
        wires one per replay so shard failover can resume mid-stream.
    """

    def __init__(
        self,
        cluster: Cluster,
        halo: int = 1,
        monitor: Optional[OnlineCCRMonitor] = None,
        faults: Optional[FaultSchedule] = None,
        checkpoint: Optional[CheckpointPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        custody: Optional[CheckpointCustody] = None,
        job_id: Optional[str] = None,
    ):
        super().__init__(cluster, halo=halo, monitor=monitor)
        self.faults = faults
        self.checkpoint = (
            checkpoint if checkpoint is not None else CheckpointPolicy()
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.seed = int(seed)
        self.custody = custody
        self.job_id = job_id
        if self.faults is not None:
            if self.faults.slowdowns or self.faults.network_faults:
                raise StreamError(
                    "streaming fault schedules support crash faults only; "
                    "slowdown/network faults need the per-superstep "
                    "pricing walk of the static resilient runtime"
                )
            self.faults.validate_for(cluster.num_machines)

    # ------------------------------------------------------------------ #

    def _validate_resume(
        self,
        checkpoint: StreamCheckpoint,
        app: GraphApplication,
        graph: DiGraph,
        stream: MutationStream,
        partitioner: Partitioner,
    ) -> None:
        expected = {
            "app": (checkpoint.app, app.name),
            "algorithm": (checkpoint.algorithm, partitioner.name),
            "halo": (checkpoint.halo, self.halo),
            "num_machines": (
                checkpoint.num_machines, self.cluster.num_machines
            ),
            "graph_fingerprint": (
                checkpoint.graph_fingerprint, graph_fingerprint(graph)
            ),
            "stream_fingerprint": (
                checkpoint.stream_fingerprint, stream.fingerprint()
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

    def _capture(
        self,
        app: GraphApplication,
        partitioner: Partitioner,
        graph_fp: str,
        stream_fp: str,
        cursor: int,
        clock_s: float,
        records: List[Mapping[str, Any]],
        encoded: Tuple[str, ...],
        result: PartitionResult,
    ) -> StreamCheckpoint:
        monitor_state = (
            self.monitor.state_dict() if self.monitor is not None else None
        )
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
            monitor=monitor_state,
        )
        # Reuse the previous snapshot's encodings of the earlier epochs.
        object.__setattr__(snapshot, "_record_json", encoded)
        return snapshot

    # ------------------------------------------------------------------ #

    def run_resilient(
        self,
        app: GraphApplication,
        graph: DiGraph,
        stream: MutationStream,
        partitioner: Partitioner,
        weights: Optional[ArrayLike] = None,
        resume_from: Optional[StreamCheckpoint] = None,
    ) -> StreamRunOutcome:
        """Run the stream under faults; return the result and the bill.

        The returned result's trace is byte-identical to an undisturbed
        :meth:`~repro.streaming.runner.StreamingSystem.run` of the same
        inputs — crashes cost time (in the recovery report), never bytes.
        With ``resume_from``, consumed batches are replayed structurally,
        the partitioner/monitor state is restored, and only the remaining
        epochs execute; the completed prefix is stitched from the
        checkpoint's records.
        """
        if self.monitor is not None and weights is not None:
            raise StreamError(
                "pass either explicit weights or a monitor, not both"
            )
        stream.validate_for(graph.num_vertices)
        graph_fp = graph_fingerprint(graph)
        stream_fp = stream.fingerprint()
        incremental = IncrementalPartitioner(partitioner, halo=self.halo)
        rng = make_rng(self.seed)
        policy = self.checkpoint
        retry = self.retry

        crashes = 0
        replayed_epochs = 0
        checkpoints_taken = 0
        lost_s = 0.0
        replay_s = 0.0
        restart_s = 0.0
        backoff_s = 0.0
        checkpoint_s = 0.0
        attempts: Dict[int, int] = {}
        epochs: List[EpochLike] = []
        #: Records of ``epochs[:len(records)]`` and their canonical JSON,
        #: each built once and shared by every later snapshot.
        records: List[Mapping[str, Any]] = []
        encoded: Tuple[str, ...] = ()
        epoch_runtimes: List[float] = []
        clock = 0.0
        #: Epoch index of the last durable snapshot (-1 = none: replay
        #: from scratch).
        last_durable = -1

        def overhead() -> float:
            return lost_s + replay_s + restart_s + backoff_s + checkpoint_s

        def handle_crashes(epoch: int) -> None:
            nonlocal crashes, replayed_epochs, lost_s, replay_s
            nonlocal restart_s, backoff_s
            if self.faults is None:
                return
            runtime = epoch_runtimes[epoch]
            for crash in self.faults.crashes_at(epoch):
                for _ in range(crash.repeats):
                    attempt = attempts.get(epoch, 0) + 1
                    attempts[epoch] = attempt
                    if attempt > retry.max_retries:
                        raise RecoveryError(
                            f"stream epoch {epoch} crashed {attempt} "
                            f"time(s), exceeding the retry budget of "
                            f"{retry.max_retries}"
                        )
                    crashes += 1
                    # The in-progress epoch's work is destroyed, plus
                    # every completed epoch since the last durable
                    # snapshot must re-execute (deterministically, so
                    # the replay changes time, never bytes).
                    lost_s += runtime
                    span = range(last_durable + 1, epoch)
                    replay_s += sum(epoch_runtimes[i] for i in span)
                    replayed_epochs += len(span) + 1
                    restart_s += policy.restart_seconds
                    backoff_s += retry.backoff_seconds(attempt, rng)
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
            nonlocal checkpoints_taken, checkpoint_s, last_durable, encoded
            if not policy.enabled or not policy.is_checkpoint_step(epoch):
                return
            records.extend(e.to_record() for e in epochs[len(records):])
            snapshot = self._capture(
                app, partitioner, graph_fp, stream_fp,
                cursor=epoch, clock_s=clock, records=records,
                encoded=encoded, result=incremental.result,
            )
            cost = policy.checkpoint_seconds(float(snapshot.state_bytes()))
            encoded = snapshot.record_json()
            checkpoints_taken += 1
            checkpoint_s += cost
            last_durable = epoch
            if self.custody is not None and self.job_id is not None:
                self.custody.record(
                    self.job_id, snapshot, durable_at_s=clock + overhead()
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

        resumed_from: Optional[int] = None
        with obs.span(
            "stream/resilient_run",
            app=app.name,
            algorithm=partitioner.name,
            halo=self.halo,
            batches=stream.num_batches,
        ):
            if resume_from is not None:
                checkpoint = resume_from
                self._validate_resume(
                    checkpoint, app, graph, stream, partitioner
                )
                current, live = replay_consumed_batches(
                    graph, stream, checkpoint.batch_cursor
                )
                assignment = np.asarray(
                    checkpoint.assignment, dtype=np.int32
                )
                if assignment.shape != (current.num_edges,):
                    raise StreamCheckpointError(
                        f"checkpoint assignment covers "
                        f"{assignment.shape[0]} edges but the replayed "
                        f"graph has {current.num_edges}"
                    )
                restored = PartitionResult(
                    graph=current,
                    assignment=assignment,
                    num_machines=checkpoint.num_machines,
                    algorithm=checkpoint.partition_algorithm,
                    weights=np.asarray(
                        checkpoint.weights, dtype=np.float64
                    ),
                )
                incremental.restore(restored, checkpoint.batch_cursor)
                if checkpoint.monitor is not None:
                    if self.monitor is None:
                        raise StreamCheckpointError(
                            "checkpoint carries monitor state but the "
                            "resuming run has no monitor attached"
                        )
                    self.monitor.load_state(dict(checkpoint.monitor))
                epochs.extend(checkpoint.restored_epochs())
                records.extend(checkpoint.epoch_records)
                encoded = checkpoint.record_json()
                epoch_runtimes.extend(
                    e.report.runtime_seconds for e in epochs
                )
                clock = checkpoint.clock_s
                last_durable = checkpoint.batch_cursor
                resumed_from = checkpoint.batch_cursor
                start_index = checkpoint.batch_cursor
                if obs.is_enabled():
                    obs.counter_add("stream.resumes", 1.0)
                    obs.event(
                        "stream/resume",
                        cursor=checkpoint.batch_cursor,
                        fingerprint=checkpoint.fingerprint()[:12],
                    )
            else:
                w = (
                    self._monitor_weights(app.name)
                    if self.monitor is not None
                    else weights
                )
                partition = incremental.start(
                    graph, self.cluster.num_machines, weights=w
                )
                outcome = self._execute_epoch(0, app, partition, update=None)
                epochs.append(outcome)
                epoch_runtimes.append(outcome.report.runtime_seconds)
                clock += outcome.report.runtime_seconds
                handle_crashes(0)
                maybe_checkpoint(0)
                current, live = graph, None
                start_index = 0

            for index in range(start_index, stream.num_batches):
                batch = stream.batches[index]
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
                outcome = self._execute_epoch(
                    index + 1, app, update.result, update
                )
                epochs.append(outcome)
                epoch_runtimes.append(outcome.report.runtime_seconds)
                clock += outcome.report.runtime_seconds
                handle_crashes(index + 1)
                maybe_checkpoint(index + 1)

        result = StreamingResult(
            app=app.name,
            algorithm=partitioner.name,
            halo=self.halo,
            epochs=tuple(epochs),
        )
        recovery = StreamRecoveryReport(
            crashes=crashes,
            replayed_epochs=replayed_epochs,
            checkpoints_taken=checkpoints_taken,
            lost_seconds=lost_s,
            replay_seconds=replay_s,
            restart_seconds=restart_s,
            backoff_seconds=backoff_s,
            checkpoint_seconds=checkpoint_s,
            resumed_from_batch=resumed_from,
        )
        return StreamRunOutcome(result=result, recovery=recovery)
