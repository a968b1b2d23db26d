"""Robustness of the store file itself: corruption, staleness, races.

Contract (ISSUE 7): a damaged or stale store must *recompute or exit 2
with a typed StoreError* — never silently serve bad rows.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.errors import StoreCorruptError, StoreSchemaError
from repro.kernels.cache import attach_store, clear_all_caches, detach_store
from repro.powerlaw.generator import generate_power_law_graph
from repro.service import generate_workload
from repro.store import CODECS, SCHEMA_VERSION, LayeredCache, SummaryStore


def _cluster():
    return Cluster(
        [get_machine("m4.2xlarge"), get_machine("c4.2xlarge")],
        perf=PerformanceModel(model_scale=0.01),
    )


def _projected(graph):
    from repro.service.estimate import projected_seconds

    return projected_seconds(_cluster(), "pagerank", graph)


@pytest.fixture
def workload_file(tmp_path) -> str:
    path = str(tmp_path / "wl.json")
    generate_workload(num_jobs=3, seed=5).save(path)
    return path


class TestTruncatedStore:
    def test_truncated_file_raises_corrupt(self, store_path):
        with SummaryStore.create(store_path) as st:
            st.put("estimate", "('k',)", b"1.5")
        # Keep the sqlite magic but chop the body: unreadable database.
        with open(store_path, "r+b") as fh:
            fh.truncate(100)
        with pytest.raises(StoreCorruptError, match="corrupt|unreadable"):
            SummaryStore.open(store_path)

    def test_cli_serve_exits_2_on_truncated_store(
        self, store_path, workload_file, capsys
    ):
        SummaryStore.create(store_path).close()
        with open(store_path, "r+b") as fh:
            fh.truncate(100)
        rc = main(
            [
                "serve", "--cluster", "m4.2xlarge",
                "--workload", workload_file, "--store", store_path,
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestFlippedPayloadByte:
    def test_recompute_not_serve(self, store_path):
        graph = generate_power_law_graph(num_vertices=150, alpha=2.0, seed=9)
        cold = _projected(graph)

        store = SummaryStore.create(store_path)
        clear_all_caches()
        attach_store(store)
        _projected(graph)  # populate
        detach_store()
        store.close()

        # Flip one byte in every payload behind the store's back.
        conn = sqlite3.connect(store_path)
        rows = conn.execute(
            "SELECT namespace, key_sha, payload FROM summaries"
        ).fetchall()
        assert rows
        for namespace, sha, payload in rows:
            payload = bytes(payload)
            flipped = bytes([payload[0] ^ 0xFF]) + payload[1:]
            conn.execute(
                "UPDATE summaries SET payload = ? "
                "WHERE namespace = ? AND key_sha = ?",
                (flipped, namespace, sha),
            )
        conn.commit()
        conn.close()

        store = SummaryStore.open(store_path)
        clear_all_caches()
        attach_store(store)
        warm = _projected(graph)
        detach_store()

        # Every flipped row was quarantined and recomputed, so the result
        # matches the cold run exactly and the recomputed rows (written
        # back through the caches) superseded the quarantine records.
        assert warm == cold
        assert sum(store.counts().values()) >= 1
        assert store.quarantined() == {}

        # And the rewritten rows now verify and serve.
        clear_all_caches()
        attach_store(store)
        again = _projected(graph)
        detach_store()
        store.close()
        assert again == cold


class TestUndecodableRow:
    """A row with a valid sha256 whose bytes its codec cannot decode is
    quarantined and read as a miss, like a row that failed its hash."""

    @pytest.mark.parametrize(
        "namespace, key, value, bad_payload",
        [
            ("machine_time", ("m", 1), 0.125, b"not-a-float"),
            (
                "assignment",
                ("a", 2),
                np.array([0, 1, 1, 0], dtype=np.int32),
                b"i4le:9\n\x00\x00",
            ),
            ("run_summary", ("s", 3), {"jobs": 2}, b"{not json"),
        ],
        ids=["float", "assignment", "json"],
    )
    def test_quarantined_recomputed_and_overwritten(
        self, store, namespace, key, value, bad_payload
    ):
        codec = CODECS[namespace]
        # The store records the sha256 of the bad bytes: they verify.
        store.put(namespace, repr(key), bad_payload)
        cache = LayeredCache(maxsize=4, namespace=namespace, codec=codec)
        cache.attach(store)

        assert cache.get(key) is None
        assert cache.stats()["misses"] == 1
        assert cache.stats()["store_hits"] == 0
        assert store.quarantined() == {namespace: 1}
        assert store.counts() == {}

        # The caller recomputes; its put overwrites the row and clears
        # the quarantine record.
        cache.put(key, value)
        assert store.quarantined() == {}
        assert store.get(namespace, repr(key)) == codec.encode(value)
        cache.clear()
        np.testing.assert_equal(cache.get(key), value)
        assert cache.stats()["store_hits"] == 1

    @pytest.mark.parametrize(
        "bad_payload",
        [b"[1]", b"{}", b'{"format_version": 1}'],
        ids=["list", "empty-object", "missing-fields"],
    )
    def test_malformed_trace_quarantined_recomputed_and_overwritten(
        self, store, bad_payload
    ):
        """Verified JSON of the wrong shape is undecodable too, whatever
        error the first bad field access raises inside the decoder."""
        from repro.cluster.perfmodel import WorkProfile
        from repro.engine.trace import ExecutionTrace, MachinePhase, SuperstepTrace

        trace = ExecutionTrace(app="pagerank", num_machines=1)
        trace.append(
            SuperstepTrace(
                phases=[MachinePhase(work=WorkProfile(flops=2.0), comm_bytes=8.0)]
            )
        )
        codec = CODECS["profile_trace"]
        key = ("trace", 1)
        store.put("profile_trace", repr(key), bad_payload)
        cache = LayeredCache(maxsize=4, namespace="profile_trace", codec=codec)
        cache.attach(store)

        assert cache.get(key) is None
        assert cache.stats()["misses"] == 1
        assert store.quarantined() == {"profile_trace": 1}

        cache.put(key, trace)
        assert store.quarantined() == {}
        cache.clear()
        assert cache.get(key).canonical_json() == trace.canonical_json()
        assert cache.stats()["store_hits"] == 1

    def test_pipeline_recomputes_past_undecodable_floats(self, store_path):
        graph = generate_power_law_graph(num_vertices=150, alpha=2.0, seed=9)
        cold = _projected(graph)

        store = SummaryStore.create(store_path)
        clear_all_caches()
        attach_store(store)
        _projected(graph)  # populate
        detach_store()
        store.close()

        # Replace every float payload with intact but undecodable bytes.
        conn = sqlite3.connect(store_path)
        rows = conn.execute(
            "SELECT namespace, key_sha FROM summaries "
            "WHERE namespace IN ('machine_time', 'estimate')"
        ).fetchall()
        assert rows
        bad = b"not-a-float"
        for namespace, sha in rows:
            conn.execute(
                "UPDATE summaries SET payload = ?, payload_sha = ? "
                "WHERE namespace = ? AND key_sha = ?",
                (bad, hashlib.sha256(bad).hexdigest(), namespace, sha),
            )
        conn.commit()
        conn.close()

        store = SummaryStore.open(store_path)
        clear_all_caches()
        attach_store(store)
        warm = _projected(graph)
        detach_store()
        try:
            assert warm == cold
            # Recomputed puts superseded every quarantine record.
            assert store.quarantined() == {}
        finally:
            store.close()


class TestStaleSchema:
    def _make_stale(self, store_path):
        SummaryStore.create(store_path).close()
        conn = sqlite3.connect(store_path)
        conn.execute(
            "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 41),),
        )
        conn.commit()
        conn.close()

    def test_open_raises_typed(self, store_path):
        self._make_stale(store_path)
        with pytest.raises(StoreSchemaError, match="regenerate"):
            SummaryStore.open(store_path)

    def test_cli_gen_stats_exits_2(self, store_path, capsys):
        self._make_stale(store_path)
        rc = main(["gen", "--store", store_path, "--stats"])
        assert rc == 2
        assert "schema version" in capsys.readouterr().err

    def test_cli_experiment_exits_2(self, store_path, capsys):
        self._make_stale(store_path)
        rc = main(
            ["experiment", "table1", "--store", store_path]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestConcurrentGen:
    def test_two_process_gen_never_corrupts(
        self, store_path, workload_file, tmp_path
    ):
        """Two `repro gen --init --all` racing on one store file: each
        must finish clean (or fail typed with exit 2), and the store
        they leave behind must open, verify and serve."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        cmd = [
            sys.executable, "-m", "repro", "gen",
            "--store", store_path, "--init", "--all",
            "--workload", workload_file, "--cluster", "m4.2xlarge,c4.2xlarge",
        ]
        procs = [
            subprocess.Popen(
                cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
            )
            for _ in range(2)
        ]
        results = [p.communicate(timeout=300) for p in procs]
        codes = [p.returncode for p in procs]
        # Never a crash (typed failures exit 2), and at least one warmer
        # must have completed the materialization.
        assert all(code in (0, 2) for code in codes), (codes, results)
        assert 0 in codes, (codes, results)
        for code, (_, err) in zip(codes, results):
            if code == 2:
                assert b"error:" in err

        # The surviving store is valid: schema checks out, every row
        # verifies, and a warm replay equals a cold one.
        with SummaryStore.open(store_path) as store:
            assert sum(store.counts().values()) >= 1
            from repro.federation import FederationService
            from repro.service import Workload

            workload = Workload.load(workload_file)
            clear_all_caches()
            cold = FederationService(
                [_cluster()]
            ).run_workload(workload).trace_json()
            clear_all_caches()
            attach_store(store)
            warm = FederationService(
                [_cluster()]
            ).run_workload(workload).trace_json()
            detach_store()
            assert warm == cold
            assert store.quarantined() == {}
