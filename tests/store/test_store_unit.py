"""Unit coverage for the store file, the layered cache and the codecs."""

from __future__ import annotations

import os
import sqlite3

import numpy as np
import pytest

from repro.engine.trace import ExecutionTrace
from repro.errors import StoreCorruptError, StoreError, StoreSchemaError
from repro.store import SCHEMA_VERSION, CODECS, LayeredCache, SummaryStore
from repro.store.codecs import (
    ASSIGNMENT_CODEC,
    FLOAT_CODEC,
    JSON_CODEC,
    TRACE_CODEC,
)


class TestSummaryStoreLifecycle:
    def test_create_then_open_roundtrip(self, store_path):
        with SummaryStore.create(store_path) as st:
            st.put("estimate", "('k',)", b"1.5")
        with SummaryStore.open(store_path) as st:
            assert st.get("estimate", "('k',)") == b"1.5"

    def test_create_is_idempotent_over_valid_store(self, store_path):
        with SummaryStore.create(store_path) as st:
            st.put("estimate", "('k',)", b"1.5")
        # A second --init must not wipe existing rows.
        with SummaryStore.create(store_path) as st:
            assert st.get("estimate", "('k',)") == b"1.5"

    def test_create_leaves_no_temp_file(self, store_path, tmp_path):
        SummaryStore.create(store_path).close()
        leftovers = [p for p in os.listdir(tmp_path) if "init-tmp" in p]
        assert leftovers == []

    def test_open_missing_store_is_typed(self, store_path):
        with pytest.raises(StoreError, match="no summary store"):
            SummaryStore.open(store_path)

    def test_open_non_sqlite_file_is_corrupt(self, store_path):
        with open(store_path, "wb") as fh:
            fh.write(b"definitely not a database")
        with pytest.raises(StoreCorruptError, match="bad sqlite header"):
            SummaryStore.open(store_path)

    def test_open_stale_schema_version_is_typed(self, store_path):
        SummaryStore.create(store_path).close()
        conn = sqlite3.connect(store_path)
        conn.execute(
            "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreSchemaError, match="schema version"):
            SummaryStore.open(store_path)


class TestSummaryStoreRows:
    def test_get_missing_row_is_none(self, store):
        assert store.get("estimate", "('missing',)") is None

    def test_put_overwrites(self, store):
        store.put("estimate", "('k',)", b"1.0")
        store.put("estimate", "('k',)", b"2.0")
        assert store.get("estimate", "('k',)") == b"2.0"
        assert store.counts() == {"estimate": 1}

    def test_namespaces_do_not_collide(self, store):
        store.put("estimate", "('k',)", b"1.0")
        store.put("machine_time", "('k',)", b"9.0")
        assert store.get("estimate", "('k',)") == b"1.0"
        assert store.get("machine_time", "('k',)") == b"9.0"

    def test_corrupt_payload_quarantined_not_served(self, store, store_path):
        store.put("estimate", "('k',)", b"1.5")
        conn = sqlite3.connect(store_path)
        conn.execute("UPDATE summaries SET payload = ?", (b"6.66",))
        conn.commit()
        conn.close()
        # The flipped payload no longer matches its recorded sha: the row
        # is quarantined and reported as a miss, never served.
        assert store.get("estimate", "('k',)") is None
        assert store.quarantined() == {"estimate": 1}
        assert store.counts() == {}
        # Recomputing and re-putting supersedes the quarantine record.
        store.put("estimate", "('k',)", b"1.5")
        assert store.get("estimate", "('k',)") == b"1.5"
        assert store.quarantined() == {}

    def test_delete_namespace(self, store):
        store.put("estimate", "('a',)", b"1")
        store.put("estimate", "('b',)", b"2")
        store.put("assignment", "('c',)", b"3")
        assert store.delete_namespace("estimate") == 2
        assert store.counts() == {"assignment": 1}

    def test_vacuum_drops_quarantine_records(self, store, store_path):
        store.put("estimate", "('k',)", b"1.5")
        conn = sqlite3.connect(store_path)
        conn.execute("UPDATE summaries SET payload = ?", (b"oops",))
        conn.commit()
        conn.close()
        store.get("estimate", "('k',)")
        assert store.vacuum() == 1
        assert store.quarantined() == {}

    def test_stats_shape(self, store):
        store.put("estimate", "('k',)", b"1.5")
        stats = store.stats()
        assert stats["schema_version"] == SCHEMA_VERSION
        assert stats["namespaces"] == {"estimate": 1}
        assert stats["total_rows"] == 1


class TestLayeredCache:
    def test_detached_behaves_like_lru(self):
        cache = LayeredCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats() == {
            "size": 1, "hits": 1, "misses": 1, "store_hits": 0,
        }

    def test_namespace_and_codec_must_pair(self):
        with pytest.raises(ValueError, match="together"):
            LayeredCache(maxsize=2, namespace="estimate")

    def test_store_hit_promotes_into_l1(self, store):
        cache = LayeredCache(
            maxsize=4, namespace="estimate", codec=CODECS["estimate"]
        )
        cache.attach(store)
        cache.put(("k",), 1.25)
        cache.clear()  # L1 emptied; the store keeps the row
        assert len(cache) == 0
        assert cache.get(("k",)) == 1.25
        assert cache.stats()["store_hits"] == 1
        # Promoted: the second read is a pure L1 hit.
        assert cache.get(("k",)) == 1.25
        assert cache.stats()["store_hits"] == 1

    def test_l1_eviction_survives_via_store(self, store):
        cache = LayeredCache(
            maxsize=1, namespace="estimate", codec=CODECS["estimate"]
        )
        cache.attach(store)
        cache.put(("a",), 1.0)
        cache.put(("b",), 2.0)  # evicts ("a",) from the 1-slot L1
        assert cache.get(("a",)) == 1.0
        assert cache.stats()["store_hits"] == 1

    def test_detach_stops_store_reads(self, store):
        cache = LayeredCache(
            maxsize=4, namespace="estimate", codec=CODECS["estimate"]
        )
        cache.attach(store)
        cache.put(("k",), 1.25)
        cache.clear()
        cache.detach()
        assert cache.get(("k",)) is None

    def test_discard_drops_l1_only(self, store):
        cache = LayeredCache(
            maxsize=4, namespace="estimate", codec=CODECS["estimate"]
        )
        cache.attach(store)
        cache.put(("k",), 1.25)
        assert cache.get(("k",)) == 1.25
        before = cache.stats()
        cache.discard(("k",))
        cache.discard(("never-stored",))
        # The row and every counter are untouched; only L1 shrank.
        assert store.counts() == {"estimate": 1}
        assert cache.stats() == {**before, "size": 0}
        # The next read is served by the store, as after an eviction.
        assert cache.get(("k",)) == 1.25
        assert cache.stats()["store_hits"] == before["store_hits"] + 1

    def test_discard_detached_then_miss(self):
        cache = LayeredCache(maxsize=4)
        cache.put("a", 1)
        cache.discard("a")
        assert cache.stats() == {
            "size": 0, "hits": 0, "misses": 0, "store_hits": 0,
        }
        assert cache.get("a") is None
        assert cache.misses == 1

    def test_codec_less_cache_ignores_attach(self, store):
        cache = LayeredCache(maxsize=4)
        cache.attach(store)
        assert not cache.attached
        cache.put(("k",), object())
        assert store.counts() == {}


class TestCodecs:
    def test_float_roundtrip_is_exact(self):
        for x in (0.0, -0.0, 1.5, 1 / 3, 1e-300, 123456.789e12):
            payload = FLOAT_CODEC.encode(x)
            assert FLOAT_CODEC.decode(payload) == x

    def test_assignment_roundtrip_is_frozen(self):
        arr = np.array([0, 3, 1, 2, 2, 0], dtype=np.int32)
        out = ASSIGNMENT_CODEC.decode(ASSIGNMENT_CODEC.encode(arr))
        assert np.array_equal(out, arr)
        assert out.dtype == np.int32
        assert not out.flags.writeable

    def test_assignment_rejects_headerless_payload(self):
        with pytest.raises(ValueError, match="header"):
            ASSIGNMENT_CODEC.decode(b"\x00\x01\x02\x03")

    def test_trace_roundtrip_preserves_canonical_json(self, ring_graph):
        from repro.apps.registry import make_app
        from repro.engine.distributed_graph import DistributedGraph
        from repro.partition import make_partitioner

        res = make_partitioner("random_hash", seed=1).partition(
            ring_graph, 2, np.array([1.0, 1.0])
        )
        trace = make_app("pagerank").execute(DistributedGraph(res))
        decoded = TRACE_CODEC.decode(TRACE_CODEC.encode(trace))
        assert isinstance(decoded, ExecutionTrace)
        assert decoded.canonical_json() == trace.canonical_json()

    def test_json_roundtrip(self):
        doc = {"b": [1, 2.5, "x"], "a": {"nested": None}}
        assert JSON_CODEC.decode(JSON_CODEC.encode(doc)) == doc

    def test_every_persisted_namespace_has_a_codec(self):
        assert sorted(CODECS) == [
            "assignment",
            "estimate",
            "machine_time",
            "profile_trace",
            "run_summary",
            "stream_checkpoint",
            "stream_record",
        ]
