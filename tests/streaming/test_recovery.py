"""Unit tests for the fault-tolerant streaming runtime.

Covers the :mod:`repro.streaming.recovery` contracts in isolation:
checkpoint serialization and validation, custody seal semantics, the
crash/replay accounting of :class:`StreamingSystem`'s recovery
settings, mid-stream resume from the snapshot a run's custody holds
(byte-identical continuation), and the recorded
recovery bill of the ``repro experiment churn_faults`` cadence sweep.
The federated failover path is exercised end-to-end in
``test_streaming_federation.py``.
"""

import dataclasses
import json

import pytest

from repro.apps.registry import make_app
from repro.errors import (
    RecoveryError,
    StreamCheckpointError,
    StreamError,
)
from repro.experiments.churn_faults import run_churn_faults
from repro.faults.checkpoint import CheckpointPolicy, RetryPolicy
from repro.faults.schedule import (
    CrashFault,
    FaultSchedule,
    SlowdownFault,
)
from repro.partition import make_partitioner
from repro.streaming import (
    CHECKPOINT_NAMESPACE,
    CheckpointCustody,
    EpochOutcome,
    StreamCheckpoint,
    StreamingSystem,
    apply_batch,
    replay_consumed_batches,
)
from repro.streaming.recovery import RestoredEpoch
from repro.testing import (
    GOLDEN_PARTITIONER,
    GOLDEN_PARTITIONER_SEED,
    GOLDEN_STREAM_HALO,
    GOLDEN_WEIGHTS,
    golden_cluster,
    golden_graph,
    golden_stream,
)

APP = "pagerank"


@pytest.fixture(scope="module")
def graph():
    return golden_graph()


@pytest.fixture(scope="module")
def stream(graph):
    return golden_stream(graph)


def _partitioner():
    return make_partitioner(GOLDEN_PARTITIONER, seed=GOLDEN_PARTITIONER_SEED)


def _plain_trace(graph, stream):
    system = StreamingSystem(golden_cluster(), halo=GOLDEN_STREAM_HALO)
    return system.run(
        make_app(APP), graph, stream, _partitioner(), weights=GOLDEN_WEIGHTS
    ).trace_json()


def _run(graph, stream, custody=None, job_id=None, **kw):
    kw.setdefault("checkpoint", CheckpointPolicy(interval=1))
    system = StreamingSystem(
        golden_cluster(),
        halo=GOLDEN_STREAM_HALO,
        custody=custody,
        job_id=job_id,
        **kw,
    )
    return system.run_resilient(
        make_app(APP),
        graph,
        stream,
        _partitioner(),
        weights=GOLDEN_WEIGHTS,
    )


def _resume(graph, stream, snapshot, **kw):
    """A run whose custody holds ``snapshot`` under its own job id."""
    custody = CheckpointCustody()
    custody.record("resume", snapshot, durable_at_s=0.0)
    return _run(graph, stream, custody=custody, job_id="resume", **kw)


@pytest.fixture(scope="module")
def checkpoint(graph, stream) -> StreamCheckpoint:
    """A real mid-stream snapshot (cursor 2 of the golden stream)."""
    custody = CheckpointCustody()
    _run(graph, stream, custody=custody, job_id="unit")
    entries = custody._entries["unit"]
    # interval=1 snapshots after every epoch: cursors 0..num_batches.
    return entries[2][1]


class TestStreamCheckpoint:
    def test_canonical_json_round_trips_byte_identically(self, checkpoint):
        payload = json.loads(checkpoint.canonical_json())
        restored = StreamCheckpoint.from_jsonable(payload)
        assert restored.canonical_json() == checkpoint.canonical_json()
        assert restored.fingerprint() == checkpoint.fingerprint()

    def test_cursor_matches_epoch_record_count(self, checkpoint):
        assert checkpoint.batch_cursor == 2
        assert len(checkpoint.epoch_records) == 3

    def test_unknown_field_rejected(self, checkpoint):
        payload = json.loads(checkpoint.canonical_json())
        payload["surprise"] = 1
        with pytest.raises(StreamCheckpointError, match="surprise"):
            StreamCheckpoint.from_jsonable(payload)

    def test_future_format_version_rejected(self, checkpoint):
        payload = json.loads(checkpoint.canonical_json())
        payload["format_version"] = 99
        with pytest.raises(StreamCheckpointError, match="99"):
            StreamCheckpoint.from_jsonable(payload)

    def test_non_null_monitor_rejected(self, checkpoint):
        for state in ({}, {"times": {}, "degradation": {}}, [], 0, "x"):
            payload = json.loads(checkpoint.canonical_json())
            payload["monitor"] = state
            with pytest.raises(StreamCheckpointError, match="monitor"):
                StreamCheckpoint.from_jsonable(payload)

    def test_live_snapshot_has_null_monitor(self, checkpoint):
        assert '"monitor":null' in checkpoint.canonical_json()
        payload = json.loads(checkpoint.canonical_json())
        del payload["monitor"]
        restored = StreamCheckpoint.from_jsonable(payload)
        assert restored.canonical_json() == checkpoint.canonical_json()

    def test_non_object_epoch_record_rejected(self, checkpoint):
        payload = json.loads(checkpoint.canonical_json())
        payload["epoch_records"][1] = [1]
        with pytest.raises(StreamCheckpointError, match="objects"):
            StreamCheckpoint.from_jsonable(payload)

    @pytest.mark.parametrize("field", ["assignment", "weights"])
    def test_array_fields_must_be_arrays(self, checkpoint, field):
        payload = json.loads(checkpoint.canonical_json())
        payload[field] = "01"
        with pytest.raises(StreamCheckpointError, match="must be an array"):
            StreamCheckpoint.from_jsonable(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("halo", 1.5),
            ("halo", True),
            ("halo", "1"),
            ("batch_cursor", 0.9),
            ("num_machines", "2"),
            ("clock_s", True),
            ("app", 7),
            ("format_version", True),
            ("format_version", 1.0),
        ],
    )
    def test_wrong_typed_scalar_rejected_not_cast(
        self, checkpoint, field, value
    ):
        payload = json.loads(checkpoint.canonical_json())
        payload[field] = value
        with pytest.raises(StreamCheckpointError):
            StreamCheckpoint.from_jsonable(payload)

    @pytest.mark.parametrize(
        "field, items", [("assignment", [0.7, True]), ("weights", ["0.5", True])]
    )
    def test_wrong_typed_array_items_rejected_not_cast(
        self, checkpoint, field, items
    ):
        for item in items:
            payload = json.loads(checkpoint.canonical_json())
            payload[field][0] = item
            with pytest.raises(StreamCheckpointError, match=field):
                StreamCheckpoint.from_jsonable(payload)

    def test_missing_field_named(self, checkpoint):
        payload = json.loads(checkpoint.canonical_json())
        del payload["clock_s"]
        with pytest.raises(StreamCheckpointError, match="clock_s"):
            StreamCheckpoint.from_jsonable(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epoch", 1.5),
            ("epoch", True),
            ("num_edges", "10"),
            ("imbalance", True),
            ("runtime_seconds", "0.5"),
            ("energy_joules", float("nan")),
            ("trace", []),
            ("reassigned_edges", 2.0),
            ("moved_edges", "0"),
        ],
    )
    def test_wrong_typed_record_field_rejected_not_cast(
        self, checkpoint, field, value
    ):
        record = dict(checkpoint.epoch_records[-1])
        assert "reassigned_edges" in record
        record[field] = value
        with pytest.raises(StreamCheckpointError, match=field):
            RestoredEpoch.from_record(record, checkpoint.num_machines)

    def test_repaired_record_missing_a_count_rejected(self, checkpoint):
        record = dict(checkpoint.epoch_records[-1])
        del record["carried_edges"]
        with pytest.raises(StreamCheckpointError, match="carried_edges"):
            RestoredEpoch.from_record(record, checkpoint.num_machines)

    def test_record_count_invariant_enforced(self, checkpoint):
        with pytest.raises(StreamCheckpointError, match="epoch records"):
            dataclasses.replace(checkpoint, batch_cursor=5)

    def test_checkpoint_key_names_identity(self, checkpoint):
        key = checkpoint.checkpoint_key("job-7")
        assert key.startswith("stream_checkpoint:v1:job=job-7:")
        assert f"cursor={checkpoint.batch_cursor}" in key
        assert checkpoint.graph_fingerprint in key
        assert checkpoint.stream_fingerprint in key


class TestReplayConsumedBatches:
    def test_matches_structural_apply(self, graph, stream):
        replayed, live = replay_consumed_batches(graph, stream, 2)
        current, expect_live = graph, None
        for batch in stream.batches[:2]:
            delta = apply_batch(current, batch, live=expect_live)
            current, expect_live = delta.graph, delta.live
        assert replayed.num_edges == current.num_edges
        assert (replayed.src == current.src).all()
        assert (replayed.dst == current.dst).all()

    def test_cursor_zero_is_the_base_graph(self, graph, stream):
        replayed, live = replay_consumed_batches(graph, stream, 0)
        assert replayed is graph
        assert live is None

    def test_cursor_beyond_stream_rejected(self, graph, stream):
        with pytest.raises(StreamCheckpointError, match="outside"):
            replay_consumed_batches(graph, stream, stream.num_batches + 1)


class TestCheckpointCustody:
    def test_latest_is_most_recent(self, checkpoint):
        custody = CheckpointCustody()
        earlier = dataclasses.replace(
            checkpoint,
            batch_cursor=1,
            epoch_records=checkpoint.epoch_records[:2],
        )
        custody.record("j", earlier, durable_at_s=1.0)
        custody.record("j", checkpoint, durable_at_s=2.0)
        assert custody.latest("j") is checkpoint
        assert custody.latest("other") is None

    def test_seal_drops_snapshots_past_the_cutoff(self, checkpoint):
        custody = CheckpointCustody()
        earlier = dataclasses.replace(
            checkpoint,
            batch_cursor=1,
            epoch_records=checkpoint.epoch_records[:2],
        )
        custody.record("j", earlier, durable_at_s=1.0)
        custody.record("j", checkpoint, durable_at_s=2.0)
        survivor = custody.seal("j", cutoff_s=1.5)
        assert survivor is earlier
        assert custody.latest("j") is earlier

    def test_sealed_survivor_stays_durable_for_later_crashes(
        self, checkpoint
    ):
        # The survivor is re-timed as already durable: a second crash at
        # an even earlier cutoff must not drop it.
        custody = CheckpointCustody()
        custody.record("j", checkpoint, durable_at_s=2.0)
        assert custody.seal("j", cutoff_s=3.0) is checkpoint
        assert custody.seal("j", cutoff_s=0.0) is checkpoint

    def test_seal_with_nothing_durable_clears_custody(self, checkpoint):
        custody = CheckpointCustody()
        custody.record("j", checkpoint, durable_at_s=2.0)
        assert custody.seal("j", cutoff_s=1.0) is None
        assert custody.latest("j") is None

    def test_clear_drops_the_job(self, checkpoint):
        custody = CheckpointCustody()
        custody.record("j", checkpoint, durable_at_s=1.0)
        custody.clear("j")
        assert custody.latest("j") is None

    def test_store_round_trip_is_byte_identical(self, tmp_path, checkpoint):
        from repro.store import SummaryStore

        path = str(tmp_path / "custody.db")
        SummaryStore.create(path).close()
        store = SummaryStore.open(path)
        try:
            custody = CheckpointCustody(store=store)
            custody.record("j", checkpoint, durable_at_s=1.0)
            fetched = custody.fetch(checkpoint.checkpoint_key("j"))
            assert fetched is not None
            assert fetched.canonical_json() == checkpoint.canonical_json()
            assert custody.fetch("stream_checkpoint:v1:job=missing") is None
        finally:
            store.close()


    def test_undecodable_store_row_is_quarantined(self, tmp_path, checkpoint):
        from repro.store import SummaryStore

        path = str(tmp_path / "custody.db")
        SummaryStore.create(path).close()
        store = SummaryStore.open(path)
        try:
            key = checkpoint.checkpoint_key("j")
            # Valid sha256, but not UTF-8: the row verifies, then fails
            # to decode.
            store.put(CHECKPOINT_NAMESPACE, key, b"\xff\xfe{")
            custody = CheckpointCustody(store=store)
            assert custody.fetch(key) is None
            assert store.quarantined() == {CHECKPOINT_NAMESPACE: 1}
            assert store.counts() == {}
            # Recording the snapshot again overwrites the row.
            custody.record("j", checkpoint, durable_at_s=1.0)
            assert store.quarantined() == {}
            fetched = custody.fetch(key)
            assert fetched is not None
            assert fetched.canonical_json() == checkpoint.canonical_json()
        finally:
            store.close()


class TestResilientRun:
    def test_slowdown_schedules_rejected(self):
        schedule = FaultSchedule(
            slowdowns=(
                SlowdownFault(superstep=0, machine=0, factor=2.0),
            )
        )
        with pytest.raises(StreamError, match="crash faults only"):
            StreamingSystem(golden_cluster(), faults=schedule)

    def test_fault_free_run_bills_only_snapshots(self, graph, stream):
        outcome = _run(graph, stream)
        assert outcome.recovery.crashes == 0
        assert outcome.recovery.replayed == 0
        # interval=1: one snapshot per epoch (initial + one per batch).
        assert outcome.recovery.checkpoints == stream.num_batches + 1
        assert outcome.recovery.checkpoint_seconds > 0.0
        assert outcome.recovery.overhead_seconds == pytest.approx(
            outcome.recovery.checkpoint_seconds
        )
        assert outcome.result.trace_json() == _plain_trace(graph, stream)

    def test_crash_bills_time_never_bytes(self, graph, stream):
        schedule = FaultSchedule(
            crashes=(CrashFault(superstep=2, machine=0),)
        )
        outcome = _run(
            graph,
            stream,
            faults=schedule,
            checkpoint=CheckpointPolicy(interval=2),
            retry=RetryPolicy(),
            seed=5,
        )
        recovery = outcome.recovery
        assert recovery.crashes == 1
        # interval=2 snapshots after epochs 1 and 3; the crash at epoch 2
        # replays only the destroyed epoch itself.
        assert recovery.replayed == 1
        assert recovery.lost_seconds > 0.0
        assert recovery.replay_seconds == 0.0
        assert recovery.restart_seconds == pytest.approx(
            CheckpointPolicy().restart_seconds
        )
        assert recovery.backoff_seconds > 0.0
        assert outcome.result.trace_json() == _plain_trace(graph, stream)

    def test_recovery_bill_is_deterministic(self, graph, stream):
        def bill():
            schedule = FaultSchedule(
                crashes=(CrashFault(superstep=1, machine=1),)
            )
            return _run(
                graph, stream, faults=schedule, seed=11
            ).recovery.to_jsonable()

        assert bill() == bill()

    def test_disabled_snapshots_replay_from_scratch(self, graph, stream):
        schedule = FaultSchedule(
            crashes=(CrashFault(superstep=2, machine=0),)
        )
        outcome = _run(
            graph,
            stream,
            faults=schedule,
            checkpoint=CheckpointPolicy(interval=0),
        )
        # No durable snapshot exists: epochs 0 and 1 replay plus the
        # destroyed epoch 2.
        assert outcome.recovery.checkpoints == 0
        assert outcome.recovery.replayed == 3
        assert outcome.recovery.replay_seconds > 0.0
        assert outcome.result.trace_json() == _plain_trace(graph, stream)

    def test_exhausted_retry_budget_raises(self, graph, stream):
        schedule = FaultSchedule(
            crashes=(CrashFault(superstep=1, machine=0, repeats=3),)
        )
        with pytest.raises(RecoveryError, match="retry budget"):
            _run(
                graph,
                stream,
                faults=schedule,
                retry=RetryPolicy(max_retries=2),
            )

    def test_resume_continues_byte_identically(self, graph, stream):
        custody = CheckpointCustody()
        _run(
            graph,
            stream,
            custody=custody,
            job_id="r",
            checkpoint=CheckpointPolicy(interval=2),
        )
        snapshot = custody.seal("r", cutoff_s=float("inf"))
        assert snapshot is not None
        assert snapshot.batch_cursor == 3
        outcome = _run(graph, stream, custody=custody, job_id="r")
        assert outcome.recovery.resumed_from_batch == 3
        assert outcome.result.trace_json() == _plain_trace(graph, stream)

    @pytest.mark.parametrize("other_job", [None, "someone-else"])
    def test_custody_without_own_snapshot_starts_at_epoch_0(
        self, graph, stream, checkpoint, other_job
    ):
        custody = CheckpointCustody()
        if other_job is not None:
            custody.record(other_job, checkpoint, durable_at_s=0.0)
        outcome = _run(graph, stream, custody=custody, job_id="mine")
        assert outcome.recovery.resumed_from_batch is None
        assert all(
            isinstance(e, EpochOutcome) for e in outcome.result.epochs
        )
        assert outcome.result.trace_json() == _plain_trace(graph, stream)
        # The run filed its own snapshots under its job id, and left the
        # other job's custody alone.
        assert custody.latest("mine").batch_cursor == stream.num_batches
        if other_job is not None:
            assert custody.latest(other_job) is checkpoint

    def test_resume_rejects_identity_mismatch(self, graph, stream, checkpoint):
        wrong = dataclasses.replace(checkpoint, app="sssp")
        with pytest.raises(StreamCheckpointError, match="app mismatch"):
            _resume(graph, stream, wrong)



class TestFingerprintsOnDemand:
    """Content fingerprints are computed only to capture or resume."""

    @staticmethod
    def _count(monkeypatch):
        from repro.streaming import MutationStream, runner

        calls = []
        graph_fp, stream_fp = runner.graph_fingerprint, MutationStream.fingerprint
        monkeypatch.setattr(
            runner,
            "graph_fingerprint",
            lambda g: calls.append("graph") or graph_fp(g),
        )
        monkeypatch.setattr(
            MutationStream,
            "fingerprint",
            lambda self: calls.append("stream") or stream_fp(self),
        )
        return calls

    def test_undisturbed_run_computes_none(self, graph, stream, monkeypatch):
        calls = self._count(monkeypatch)
        _plain_trace(graph, stream)
        assert calls == []

    def test_run_without_snapshots_computes_none(
        self, graph, stream, monkeypatch
    ):
        calls = self._count(monkeypatch)
        _run(graph, stream, checkpoint=CheckpointPolicy(interval=0))
        assert calls == []

    def test_snapshots_compute_each_once(self, graph, stream, monkeypatch):
        calls = self._count(monkeypatch)
        outcome = _run(graph, stream, checkpoint=CheckpointPolicy(interval=1))
        assert outcome.recovery.checkpoints == stream.num_batches + 1
        assert calls == ["graph", "stream"]


class TestSnapshotCost:
    """Snapshots reuse each epoch's record instead of rebuilding them all."""

    @staticmethod
    def _count_records(monkeypatch):
        built = []
        original = EpochOutcome.to_record

        def counting(self):
            built.append(self.epoch)
            return original(self)

        monkeypatch.setattr(EpochOutcome, "to_record", counting)
        return built

    def test_every_epoch_record_is_built_once(
        self, graph, stream, monkeypatch
    ):
        built = self._count_records(monkeypatch)
        outcome = _run(graph, stream, checkpoint=CheckpointPolicy(interval=1))
        assert outcome.recovery.checkpoints == stream.num_batches + 1
        assert built == list(range(stream.num_batches + 1))

    def test_resume_builds_only_the_live_epochs(
        self, graph, stream, checkpoint, monkeypatch
    ):
        built = self._count_records(monkeypatch)
        restored = StreamCheckpoint.from_jsonable(
            json.loads(checkpoint.canonical_json())
        )
        outcome = _resume(graph, stream, restored)
        assert outcome.recovery.resumed_from_batch == 2
        assert built == list(range(3, stream.num_batches + 1))
        assert outcome.result.trace_json() == _plain_trace(graph, stream)

    def test_snapshots_share_the_run_s_record_encodings(self, graph, stream):
        custody = CheckpointCustody()
        _run(graph, stream, custody=custody, job_id="share")
        snapshots = [c for _, c in custody._entries["share"]]
        for earlier, later in zip(snapshots, snapshots[1:]):
            prefix = later.record_json()[: len(earlier.epoch_records)]
            assert all(a is b for a, b in zip(prefix, earlier.record_json()))


#: The ``repro experiment churn_faults`` cadence sweep (pagerank, hybrid,
#: seed 9, scale 0.01): one seeded mid-stream crash per checkpoint
#: interval, interval 0 restarting from scratch.  Per interval:
#: (checkpoints taken, crashes, replayed epochs, checkpoint s, replay s,
#: overhead s), the seconds rounded to 6 decimals.
CADENCE_BASELINE = {
    0: (0, 1, 5, 0.0, 0.00103, 2.544543),
    1: (7, 1, 1, 0.352035, 0.000206, 2.895754),
    2: (3, 1, 1, 0.150872, 0.000206, 2.69459),
    4: (1, 1, 1, 0.050291, 0.000206, 2.594009),
}


@pytest.fixture(scope="module")
def cadence_sweep():
    result = run_churn_faults(
        scale=0.01, app=APP, algorithm="hybrid",
        intervals=tuple(CADENCE_BASELINE), seed=9,
    )
    return {row.interval: row for row in result.rows_list}


class TestCadenceSweepBaseline:
    """Everything in the sweep is deterministic, so the bill is held to
    the recorded values exactly, and every cadence must recover the
    undisturbed trace byte for byte."""

    @pytest.mark.parametrize("interval", sorted(CADENCE_BASELINE))
    def test_recovered_trace_is_byte_identical(self, cadence_sweep, interval):
        assert cadence_sweep[interval].trace_identical

    @pytest.mark.parametrize("interval", sorted(CADENCE_BASELINE))
    def test_recovery_bill_matches_recorded(self, cadence_sweep, interval):
        row = cadence_sweep[interval]
        measured = (
            row.checkpoints_taken,
            row.crashes,
            row.replayed_epochs,
            round(row.checkpoint_seconds, 6),
            round(row.replay_seconds, 6),
            round(row.overhead_seconds, 6),
        )
        assert measured == CADENCE_BASELINE[interval]
