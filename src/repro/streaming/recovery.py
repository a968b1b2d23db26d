"""Fault-tolerant streaming: checkpoints, crash replay and resume.

A crash mid-stream destroys the incremental partitioner's carried
state; this module holds what survives it:

* :class:`StreamCheckpoint` — a versioned, canonical-JSON,
  sha256-fingerprinted snapshot of everything a streaming run needs to
  continue after a crash: the batch cursor, the simulated clock, the
  serialized records of every completed epoch, and the incremental
  partitioner's assignment + target weights.  The graph itself
  is *not* serialized: consumed batches are pure data and are replayed
  structurally on restore, which is cheap and exactly-once by
  construction (no epoch is ever re-priced into the trace).  A run
  encodes each epoch record once and every later snapshot shares that
  fragment; the snapshot's size and fingerprint are summed and hashed
  from the fragments, so the whole canonical text is only built on
  demand (:meth:`StreamCheckpoint.canonical_json`).
* :class:`CheckpointCustody` — the durable side.  It tracks, per job,
  which checkpoints had hit disk by any given instant (the federation
  seals the set at a shard-crash time) and optionally persists every
  snapshot through :mod:`repro.store`: each epoch record once, as a
  content-addressed ``stream_record`` row keyed by its sha256, and each
  snapshot as a small ``stream_checkpoint`` manifest (header,
  assignment, weights, record digests in order, fingerprint).  Rows
  inherit the store's per-row sha256 verification and
  quarantine-and-recompute contract; a fetch re-assembles the snapshot
  and checks every record digest and the fingerprint.
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

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.errors import StreamCheckpointError
from repro.graph.digraph import DiGraph
from repro.streaming.incremental import RepairStats
from repro.streaming.mutations import MutationStream, apply_batch
from repro.utils.canonical import (
    Encoded,
    canonical_digest,
    canonical_json,
)
from repro.utils.validation import (
    require_array,
    require_finite,
    require_integer,
    require_real,
    require_string,
)

if TYPE_CHECKING:
    from repro.store.store import SummaryStore

__all__ = [
    "STREAM_CHECKPOINT_FORMAT_VERSION",
    "CHECKPOINT_NAMESPACE",
    "RECORD_NAMESPACE",
    "StreamCheckpoint",
    "RestoredEpoch",
    "CheckpointCustody",
    "replay_consumed_batches",
]

#: Bump when the checkpoint layout changes; readers reject other versions.
STREAM_CHECKPOINT_FORMAT_VERSION = 1

#: Summary-store namespace holding one manifest row per snapshot.
CHECKPOINT_NAMESPACE = "stream_checkpoint"

#: Summary-store namespace holding each epoch record once, keyed by the
#: sha256 of its canonical JSON.
RECORD_NAMESPACE = "stream_record"


#: Fields every epoch record carries; a repaired epoch's record also
#: carries the :class:`RepairStats` counts.
_RECORD_FIELDS = (
    "epoch", "num_edges", "imbalance", "runtime_seconds", "energy_joules",
    "trace",
)
_REPAIR_FIELDS = tuple(f.name for f in dataclasses.fields(RepairStats))

#: Fields of a snapshot payload; only ``monitor`` may be left out.
_CHECKPOINT_FIELDS = (
    "format_version", "app", "algorithm", "partition_algorithm", "halo",
    "num_machines", "graph_fingerprint", "stream_fingerprint",
    "batch_cursor", "clock_s", "epoch_records", "assignment", "weights",
)


def _require_fields(
    doc: Mapping[str, Any], names: Tuple[str, ...], what: str
) -> None:
    missing = [name for name in names if name not in doc]
    if missing:
        raise StreamCheckpointError(f"{what} is missing fields {missing}")


def record_key(digest: str) -> str:
    """Summary-store key text of the epoch-record row with this sha256."""
    return f"{RECORD_NAMESPACE}:sha256={digest}"


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
class RestoredEpoch:
    """An epoch stitched back from a checkpoint's serialized record.

    One half of :data:`~repro.streaming.runner.EpochLike`: it serializes
    to exactly the record the live epoch produced (so the stitched trace
    is byte-identical) and exposes the same accounting scalars as a live
    :class:`~repro.streaming.runner.EpochOutcome`: the ones the service,
    the CLI's stream table and the
    :class:`~repro.streaming.runner.StreamingResult` totals read.  The
    live trace object is gone — that is the point of a checkpoint — so
    anything needing it must come from a live epoch.
    """

    epoch: int
    num_machines: int
    num_edges: int
    imbalance: float
    record: Mapping[str, Any]
    report: _RestoredReport
    update: Optional[RepairStats]

    def to_record(self) -> Dict[str, Any]:
        return dict(self.record)

    @classmethod
    def from_record(
        cls, record: Mapping[str, Any], num_machines: int
    ) -> "RestoredEpoch":
        error = StreamCheckpointError
        _require_fields(record, _RECORD_FIELDS, "epoch record")
        for key in ("epoch", "num_edges"):
            require_integer(record[key], f"epoch record {key}", error)
        for key in ("imbalance", "runtime_seconds", "energy_joules"):
            require_finite(record[key], f"epoch record {key}", error)
        trace = record["trace"]
        if not isinstance(trace, Mapping) or "supersteps" not in trace:
            raise error("epoch record trace must be an object with supersteps")
        require_array(trace["supersteps"], "epoch record supersteps", error)
        update: Optional[RepairStats] = None
        if "reassigned_edges" in record:
            _require_fields(record, _REPAIR_FIELDS, "epoch record")
            for key in _REPAIR_FIELDS:
                require_integer(record[key], f"epoch record {key}", error)
            update = RepairStats(**{key: record[key] for key in _REPAIR_FIELDS})
        return cls(
            epoch=record["epoch"],
            num_machines=num_machines,
            num_edges=record["num_edges"],
            imbalance=float(record["imbalance"]),
            record=record,
            report=_RestoredReport(
                runtime_seconds=float(record["runtime_seconds"]),
                energy_joules=float(record["energy_joules"]),
                num_supersteps=len(trace["supersteps"]),
            ),
            update=update,
        )


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

    The JSON form also carries a fixed ``"monitor": null`` entry.  It
    holds no state, but it is part of the snapshot bytes that the
    checkpoint cost model and the fingerprint are computed from, so a
    loaded payload must have it null (or leave it out).
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
    format_version: int = STREAM_CHECKPOINT_FORMAT_VERSION
    #: Memoised encodings (the checkpoint is immutable): the canonical JSON
    #: of a prefix of ``epoch_records`` and the sha256 of a prefix of
    #: those fragments (all of them once :meth:`record_json` /
    #: :meth:`record_digests` has run), and the ``(size, sha256)`` pair
    #: of the whole snapshot text.
    _record_json: Tuple[str, ...] = field(
        default=(), init=False, repr=False, compare=False
    )
    _record_digests: Tuple[str, ...] = field(
        default=(), init=False, repr=False, compare=False
    )
    _measured: Optional[Tuple[int, str]] = field(
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

    def _fields(self) -> Dict[str, Any]:
        """Every JSON field except the two long arrays, ``assignment`` and
        ``epoch_records``."""
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
            "weights": list(self.weights),
            "monitor": None,
        }

    def to_jsonable(self) -> Dict[str, Any]:
        doc = self._fields()
        doc["assignment"] = list(self.assignment)
        doc["epoch_records"] = [dict(r) for r in self.epoch_records]
        return doc

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
                canonical_json(r)
                for r in self.epoch_records[len(fragments):]
            )
            object.__setattr__(self, "_record_json", fragments)
        return fragments

    def record_digests(self) -> Tuple[str, ...]:
        """sha256 of each :meth:`record_json` fragment: its store address."""
        digests = self._record_digests
        fragments = self.record_json()
        if len(digests) < len(fragments):
            digests += tuple(
                hashlib.sha256(f.encode("utf-8")).hexdigest()
                for f in fragments[len(digests):]
            )
            object.__setattr__(self, "_record_digests", digests)
        return digests

    def share_encodings(self, earlier: "StreamCheckpoint") -> None:
        """Adopt the record encodings of an earlier snapshot of the same run.

        ``earlier.epoch_records`` must be a prefix of this snapshot's, as
        it is for every snapshot a run takes after another.
        """
        object.__setattr__(self, "_record_json", earlier._record_json)
        object.__setattr__(self, "_record_digests", earlier._record_digests)

    def _document(self) -> Dict[str, Any]:
        """:meth:`to_jsonable` with each epoch record as its cached
        :meth:`record_json` fragment."""
        doc = self._fields()
        doc["assignment"] = self.assignment
        doc["epoch_records"] = [Encoded(f) for f in self.record_json()]
        return doc

    def canonical_json(self) -> str:
        """Deterministic single-line JSON (sorted keys, fixed separators).

        :func:`~repro.utils.canonical.canonical_json` of
        :meth:`to_jsonable`, with :meth:`record_json` spliced in.  It is
        the one definition of the snapshot bytes, but nothing on a run's
        path builds it: :meth:`state_bytes` and :meth:`fingerprint` hash
        the same pieces, and the store keeps a manifest plus one row per
        record.
        """
        return canonical_json(self._document())

    def _measure(self) -> Tuple[int, str]:
        """``(len, sha256)`` of the canonical text, hashed piece by piece."""
        measured = self._measured
        if measured is None:
            measured = canonical_digest(self._document())
            object.__setattr__(self, "_measured", measured)
        return measured

    def fingerprint(self) -> str:
        """sha256 of the canonical JSON — the checkpoint's identity."""
        return self._measure()[1]

    def state_bytes(self) -> int:
        """Snapshot size the checkpoint cost model charges for: the length
        of the canonical JSON in bytes."""
        return self._measure()[0]

    def manifest_json(self) -> str:
        """The persisted form: canonical JSON of the fields without
        ``monitor``, the ``records`` digests in order and the
        ``fingerprint``.

        The records themselves are stored once each, under
        :func:`record_key` of their digest.
        """
        fields = self._fields()
        del fields["monitor"]
        fields["fingerprint"] = self.fingerprint()
        fields["assignment"] = self.assignment
        fields["records"] = self.record_digests()
        return canonical_json(fields)

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
        error = StreamCheckpointError
        if not isinstance(payload, Mapping):
            raise error("checkpoint payload must be an object")
        version = payload.get("format_version")
        if type(version) is not int or version != STREAM_CHECKPOINT_FORMAT_VERSION:
            raise error(
                f"unsupported stream checkpoint format {version!r} "
                f"(this library reads {STREAM_CHECKPOINT_FORMAT_VERSION})"
            )
        unknown = sorted(
            set(payload) - {*_CHECKPOINT_FIELDS, "monitor"}, key=repr
        )
        if unknown:
            raise error(f"unknown checkpoint fields {unknown}")
        if payload.get("monitor") is not None:
            raise error(
                "checkpoint monitor field must be null, got "
                f"{type(payload['monitor']).__name__}"
            )
        _require_fields(payload, _CHECKPOINT_FIELDS, "checkpoint payload")
        for key in (
            "app", "algorithm", "partition_algorithm", "graph_fingerprint",
            "stream_fingerprint",
        ):
            require_string(payload[key], f"checkpoint {key}", error)
        for key in ("halo", "num_machines", "batch_cursor"):
            require_integer(payload[key], f"checkpoint {key}", error)
        # The run's own clock and weights round-trip as saved, so a
        # non-finite float is data here, and only its type is checked.
        require_real(payload["clock_s"], "checkpoint clock_s", error)
        require_array(
            payload["assignment"], "checkpoint assignment", error,
            require_integer,
        )
        require_array(
            payload["weights"], "checkpoint weights", error, require_real
        )
        records = payload["epoch_records"]
        require_array(records, "checkpoint epoch_records", error)
        if not all(isinstance(r, Mapping) for r in records):
            raise error("checkpoint epoch_records must be objects")
        return cls(
            format_version=version,
            app=payload["app"],
            algorithm=payload["algorithm"],
            partition_algorithm=payload["partition_algorithm"],
            halo=int(payload["halo"]),
            num_machines=int(payload["num_machines"]),
            graph_fingerprint=payload["graph_fingerprint"],
            stream_fingerprint=payload["stream_fingerprint"],
            batch_cursor=int(payload["batch_cursor"]),
            clock_s=float(payload["clock_s"]),
            epoch_records=tuple(records),
            assignment=tuple(int(a) for a in payload["assignment"]),
            weights=tuple(float(w) for w in payload["weights"]),
        )

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
    also persisted (per-row sha256 verification and
    quarantine-and-recompute included), so a process restart can
    re-hydrate custody from disk: each epoch record once under
    ``stream_record``, and one manifest per snapshot under
    ``stream_checkpoint``, a snapshot's new rows and its manifest in one
    store transaction.
    """

    def __init__(self, store: Optional["SummaryStore"] = None):
        self._store = store
        self._entries: Dict[str, List[Tuple[float, StreamCheckpoint]]] = {}
        #: Digests of the record rows this custody has written and not
        #: since seen quarantined: a snapshot writes only the others.
        self._written: Set[str] = set()

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

            records = CODECS[RECORD_NAMESPACE]
            fresh: Set[str] = set()
            # One transaction per snapshot: its new record rows and its
            # manifest commit together, or none of them does.
            with self._store.batch():
                for fragment, digest in zip(
                    checkpoint.record_json(), checkpoint.record_digests()
                ):
                    if digest not in self._written and digest not in fresh:
                        self._store.put(
                            RECORD_NAMESPACE,
                            record_key(digest),
                            records.encode(fragment),
                        )
                        fresh.add(digest)
                self._store.put(
                    CHECKPOINT_NAMESPACE,
                    checkpoint.checkpoint_key(job_id),
                    CODECS[CHECKPOINT_NAMESPACE].encode(checkpoint),
                )
            self._written |= fresh

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

        Reads the manifest, then each record row it names, checking every
        row against its digest and the re-assembled snapshot against the
        manifest's fingerprint.  Returns ``None`` on a miss; a missing,
        corrupt or undecodable row is quarantined first (the manifest
        for a bad manifest, the record row for a bad record — which
        voids every snapshot that names it until a later :meth:`record`
        rewrites it).  The caller recomputes.
        """
        store = self._store
        if store is None:
            return None
        from repro.store.codecs import CODECS

        manifest = store.get_decoded(
            CHECKPOINT_NAMESPACE, key_text, CODECS[CHECKPOINT_NAMESPACE]
        )
        if manifest is None:
            return None
        digests = manifest.pop("records")
        fingerprint = manifest.pop("fingerprint")
        fragments: List[str] = []
        records: List[Mapping[str, Any]] = []
        for digest in digests:
            loaded = self._fetch_record(store, digest)
            if loaded is None:
                return None
            fragments.append(loaded[0])
            records.append(loaded[1])
        try:
            checkpoint = StreamCheckpoint.from_jsonable(
                {**manifest, "epoch_records": records}
            )
        except StreamCheckpointError as exc:
            store.quarantine(
                CHECKPOINT_NAMESPACE, key_text, f"invalid manifest ({exc})"
            )
            return None
        object.__setattr__(checkpoint, "_record_json", tuple(fragments))
        object.__setattr__(checkpoint, "_record_digests", tuple(digests))
        if checkpoint.fingerprint() != fingerprint:
            store.quarantine(
                CHECKPOINT_NAMESPACE,
                key_text,
                "re-assembled snapshot does not match the manifest "
                "fingerprint",
            )
            return None
        return checkpoint

    def _fetch_record(
        self, store: "SummaryStore", digest: str
    ) -> Optional[Tuple[str, Mapping[str, Any]]]:
        """The verified fragment and record stored under ``digest``.

        A missing row, or one whose bytes do not hash to ``digest`` or do
        not decode, is quarantined, forgotten as written, and ``None``.
        """
        from repro.store.codecs import CODECS

        key = record_key(digest)
        payload = store.get(RECORD_NAMESPACE, key)
        if payload is None:
            reason = "missing epoch record row"
        elif hashlib.sha256(payload).hexdigest() != digest:
            reason = "epoch record row does not match its digest"
        else:
            try:
                record = CODECS[RECORD_NAMESPACE].decode(payload)
                return payload.decode("utf-8"), record
            except ValueError as exc:
                reason = f"undecodable epoch record row ({exc})"
        store.quarantine(RECORD_NAMESPACE, key, reason)
        self._written.discard(digest)
        return None


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
