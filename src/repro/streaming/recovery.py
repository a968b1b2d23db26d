"""Fault-tolerant streaming: checkpoints, crash replay and resume.

A crash mid-stream destroys the incremental partitioner's carried
state; this module holds what survives it:

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
* :func:`replay_consumed_batches` — the structural half of a resume.

The epoch loop that takes the snapshots, recovers from crashes and
resumes lives in :class:`~repro.streaming.runner.StreamingSystem`,
whose constructor takes the recovery settings; a run resumes when its
custody already holds a snapshot for its job id.  Crash faults strike
*epochs* (the streaming analogue of
a superstep barrier): a crash destroys the in-progress epoch plus every
completed epoch since the last durable checkpoint, and the run replays
them under the bounded :class:`~repro.faults.RetryPolicy` with seeded
backoff.  Because the epochs are deterministic, replayed work
re-produces identical bytes — so recovery is priced into a separate
:class:`~repro.faults.checkpoint.RecoveryBill` and the
:class:`~repro.streaming.runner.StreamingResult` trace stays
byte-identical to an undisturbed run.  That invariant is what the
federation failover path and the bench gate pin.
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

from repro.errors import StreamCheckpointError
from repro.graph.digraph import DiGraph
from repro.streaming.mutations import MutationStream, apply_batch

if TYPE_CHECKING:
    from repro.store.store import SummaryStore

__all__ = [
    "STREAM_CHECKPOINT_FORMAT_VERSION",
    "CHECKPOINT_NAMESPACE",
    "StreamCheckpoint",
    "RestoredEpoch",
    "CheckpointCustody",
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

    One half of :data:`~repro.streaming.runner.EpochLike`: it serializes
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
