"""The persisted checkpoint layout: record rows once, one manifest each.

A custody with a store writes each epoch record's canonical JSON
fragment once, as a ``stream_record`` row keyed by its sha256, and each
snapshot as a ``stream_checkpoint`` manifest naming those rows.  These
tests pin the bytes that reach the store, the memory a snapshot costs
on a run's path (one epoch's fragment, not the snapshot), and what a
bad or old row does to a fetch.
"""

import dataclasses
import json
import sqlite3
import tracemalloc

import pytest

from repro.apps.registry import make_app
from repro.faults.checkpoint import CheckpointPolicy
from repro.partition import make_partitioner
from repro.store import SummaryStore
from repro.store.codecs import JSON_CODEC
from repro.store.store import key_sha
from repro.streaming import (
    CHECKPOINT_NAMESPACE,
    RECORD_NAMESPACE,
    CheckpointCustody,
    StreamingSystem,
    generate_stream,
)
from repro.streaming.recovery import record_key
from repro.testing import (
    GOLDEN_PARTITIONER,
    GOLDEN_PARTITIONER_SEED,
    GOLDEN_STREAM_HALO,
    GOLDEN_WEIGHTS,
    golden_cluster,
    golden_graph,
    golden_stream,
)

JOB = "layout"


def _snapshots(graph, stream, custody):
    """Run ``stream`` with a snapshot after every epoch; return them all."""
    StreamingSystem(
        golden_cluster(),
        halo=GOLDEN_STREAM_HALO,
        checkpoint=CheckpointPolicy(interval=1),
        custody=custody,
        job_id=JOB,
    ).run_resilient(
        make_app("pagerank"),
        graph,
        stream,
        make_partitioner(GOLDEN_PARTITIONER, seed=GOLDEN_PARTITIONER_SEED),
        weights=GOLDEN_WEIGHTS,
    )
    return [snapshot for _, snapshot in custody._entries[JOB]]


@pytest.fixture
def store(tmp_path):
    opened = SummaryStore.create(str(tmp_path / "checkpoints.db"))
    yield opened
    opened.close()


@pytest.fixture(scope="module")
def graph():
    return golden_graph()


class TestBytesWritten:
    def test_each_record_once_plus_one_manifest_per_snapshot(
        self, graph, store, monkeypatch
    ):
        writes = []
        put = SummaryStore.put

        def counting(self, namespace, key_text, payload):
            writes.append((namespace, key_text, len(payload)))
            return put(self, namespace, key_text, payload)

        monkeypatch.setattr(SummaryStore, "put", counting)
        snapshots = _snapshots(
            graph, golden_stream(graph), CheckpointCustody(store)
        )
        last = snapshots[-1]
        record_writes = [w for w in writes if w[0] == RECORD_NAMESPACE]
        manifest_writes = [w for w in writes if w[0] == CHECKPOINT_NAMESPACE]
        assert len(record_writes) + len(manifest_writes) == len(writes)
        # Every epoch's fragment exactly once, in epoch order.
        assert [k for _, k, _ in record_writes] == [
            record_key(d) for d in last.record_digests()
        ]
        assert [k for _, k, _ in manifest_writes] == [
            s.checkpoint_key(JOB) for s in snapshots
        ]
        assert sum(n for _, _, n in writes) == sum(
            len(f.encode("utf-8")) for f in last.record_json()
        ) + sum(len(s.manifest_json().encode("utf-8")) for s in snapshots)
        # The billed sizes did not change with the layout.
        for snapshot in snapshots:
            assert snapshot.state_bytes() == len(
                snapshot.canonical_json().encode("utf-8")
            )

    def test_one_commit_per_snapshot(self, graph, store):
        commits = []
        store._conn.set_trace_callback(
            lambda sql: commits.append(sql) if sql == "COMMIT" else None
        )
        snapshots = _snapshots(
            graph, golden_stream(graph), CheckpointCustody(store)
        )
        # A snapshot's new record rows and its manifest share one
        # transaction; the puts themselves are still one per row.
        assert len(commits) == len(snapshots)
        assert sum(store.counts().values()) == len(snapshots) + len(
            snapshots[-1].epoch_records
        )

    def test_failed_snapshot_leaves_no_rows(self, graph, store, monkeypatch):
        snapshot = _snapshots(
            graph, golden_stream(graph), CheckpointCustody(None)
        )[-1]
        put = SummaryStore.put

        def failing(self, namespace, key_text, payload):
            if namespace == CHECKPOINT_NAMESPACE:
                raise OSError("disk gone")
            return put(self, namespace, key_text, payload)

        custody = CheckpointCustody(store)
        monkeypatch.setattr(SummaryStore, "put", failing)
        with pytest.raises(OSError, match="disk gone"):
            custody.record(JOB, snapshot, durable_at_s=0.0)
        # No record row was committed without its manifest, and custody
        # does not count the rolled-back rows as written.
        assert store.counts() == {}
        monkeypatch.setattr(SummaryStore, "put", put)
        custody.record(JOB, snapshot, durable_at_s=0.0)
        assert store.counts() == {
            CHECKPOINT_NAMESPACE: 1,
            RECORD_NAMESPACE: len(snapshot.epoch_records),
        }
        assert custody.fetch(snapshot.checkpoint_key(JOB)) == snapshot

    def test_stats_list_both_namespaces(self, graph, store):
        snapshots = _snapshots(
            graph, golden_stream(graph), CheckpointCustody(store)
        )
        assert store.counts() == {
            CHECKPOINT_NAMESPACE: len(snapshots),
            RECORD_NAMESPACE: len(snapshots[-1].epoch_records),
        }


def _traced_peak(action):
    """Peak of the memory ``action`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestSnapshotMemory:
    def test_record_and_measure_cost_one_epoch_not_the_snapshot(
        self, graph, store
    ):
        stream = generate_stream(
            graph, pattern="churn", num_batches=11, ops_per_batch=8, seed=5
        )
        custody = CheckpointCustody(store)
        snapshots = _snapshots(graph, stream, custody)
        earlier, last = snapshots[-2], snapshots[-1]
        assert len(last.epoch_records) >= 10
        fragment = max(len(f) for f in last.record_json())
        # What encoding the newest epoch costs on its own: the JSON
        # encoder holds every number's text until it joins them.
        encoding = _traced_peak(
            lambda: json.dumps(
                last.epoch_records[-1], sort_keys=True, separators=(",", ":")
            )
        )
        # The next snapshot of a run: the same state, the earlier
        # snapshot's encodings shared, nothing measured yet.
        fresh = dataclasses.replace(last, clock_s=last.clock_s + 1.0)
        fresh.share_encodings(earlier)

        def snapshot():
            custody.record(JOB, fresh, durable_at_s=0.0)
            fresh.state_bytes()
            fresh.fingerprint()

        peak = _traced_peak(snapshot)
        assert fresh.state_bytes() > 10 * fragment
        assert peak < encoding + 2 * fragment, (peak, encoding, fragment)


class TestBadRows:
    def test_one_bad_record_row_voids_every_snapshot_naming_it(
        self, graph, store
    ):
        custody = CheckpointCustody(store)
        snapshots = _snapshots(graph, golden_stream(graph), custody)
        shared = snapshots[0].record_digests()[0]
        # Valid row bytes, wrong content: only the digest check sees it.
        store.put(RECORD_NAMESPACE, record_key(shared), b'{"epoch":0}')
        for snapshot in snapshots:
            assert custody.fetch(snapshot.checkpoint_key(JOB)) is None
        assert store.quarantined() == {RECORD_NAMESPACE: 1}
        assert store.counts()[CHECKPOINT_NAMESPACE] == len(snapshots)
        # The custody forgot the row, so the next snapshot rewrites it.
        custody.record(JOB, snapshots[-1], durable_at_s=0.0)
        assert store.quarantined() == {}
        for snapshot in snapshots:
            fetched = custody.fetch(snapshot.checkpoint_key(JOB))
            assert fetched is not None
            assert fetched.canonical_json() == snapshot.canonical_json()

    def test_damaged_record_bytes_are_quarantined(self, graph, store):
        custody = CheckpointCustody(store)
        snapshots = _snapshots(graph, golden_stream(graph), custody)
        digest = snapshots[-1].record_digests()[-1]
        raw = sqlite3.connect(store.path, isolation_level=None)
        try:
            raw.execute(
                "UPDATE summaries SET payload = ? "
                "WHERE namespace = ? AND key_sha = ?",
                (b"{}", RECORD_NAMESPACE, key_sha(record_key(digest))),
            )
        finally:
            raw.close()
        assert custody.fetch(snapshots[-1].checkpoint_key(JOB)) is None
        assert store.quarantined() == {RECORD_NAMESPACE: 1}
        # Snapshots taken before that epoch do not name the row.
        fetched = custody.fetch(snapshots[-2].checkpoint_key(JOB))
        assert fetched is not None
        assert fetched.canonical_json() == snapshots[-2].canonical_json()

    def test_missing_record_row_is_a_quarantined_miss(self, graph, store):
        custody = CheckpointCustody(store)
        snapshots = _snapshots(graph, golden_stream(graph), custody)
        digest = snapshots[0].record_digests()[0]
        store.delete_namespace(RECORD_NAMESPACE)
        assert custody.fetch(snapshots[0].checkpoint_key(JOB)) is None
        assert store.quarantined() == {RECORD_NAMESPACE: 1}
        custody.record(JOB, snapshots[0], durable_at_s=0.0)
        assert store.get(RECORD_NAMESPACE, record_key(digest)) is not None

    def test_full_snapshot_row_of_the_earlier_layout_is_quarantined(
        self, graph, store
    ):
        custody = CheckpointCustody(store)
        snapshots = _snapshots(graph, golden_stream(graph), custody)
        key = snapshots[-1].checkpoint_key(JOB)
        store.put(
            CHECKPOINT_NAMESPACE,
            key,
            snapshots[-1].canonical_json().encode("utf-8"),
        )
        assert custody.fetch(key) is None
        assert store.quarantined() == {CHECKPOINT_NAMESPACE: 1}
        custody.record(JOB, snapshots[-1], durable_at_s=0.0)
        fetched = custody.fetch(key)
        assert fetched is not None
        assert fetched.canonical_json() == snapshots[-1].canonical_json()

    def test_manifest_naming_another_snapshot_s_records_is_rejected(
        self, graph, store
    ):
        custody = CheckpointCustody(store)
        snapshots = _snapshots(graph, golden_stream(graph), custody)
        key = snapshots[-1].checkpoint_key(JOB)
        manifest = json.loads(store.get(CHECKPOINT_NAMESPACE, key))
        manifest["records"] = manifest["records"][::-1]
        store.put(CHECKPOINT_NAMESPACE, key, JSON_CODEC.encode(manifest))
        assert custody.fetch(key) is None
        assert store.quarantined() == {CHECKPOINT_NAMESPACE: 1}
