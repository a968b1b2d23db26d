"""Mid-stream shard failover: the fault-tolerant streaming acceptance test.

A 3-shard federation runs the golden streaming workload with a shared
checkpoint custody.  A seeded shard crash lands mid-way through the
stream's occupancy window; the federation must seal custody at the crash
instant, fail the stream over in ring order, journal the
``checkpoint:<cursor>`` / ``resumed:<cursor>`` pair proving exactly-once
batch application, and complete with a final trace byte-identical to the
undisturbed run — pinned to ``tests/golden/federated_stream_pagerank
.trace.json`` (regenerate with ``scripts/regen_streaming_golden.py``) and
to the recorded crash placement, failover count and trace digest.
"""

import hashlib
import json
import pathlib

import pytest

from repro.faults import ShardCrash, ShardFaultSchedule
from repro.faults.checkpoint import CheckpointPolicy
from repro.federation import FederationService
from repro.kernels.cache import clear_all_caches
from repro.streaming import CheckpointCustody
from repro.testing import (
    GOLDEN_FED_SHARDS,
    GOLDEN_FED_STREAM_JOB,
    GOLDEN_STREAM_BATCHES,
    golden_federated_stream_workload,
    golden_federation_clusters,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"
FIXTURE = GOLDEN_DIR / "federated_stream_pagerank.trace.json"

#: sha256 of the stream trace, fault-free and after the failover alike.
STREAM_TRACE_SHA256 = (
    "a546b6ab50662264b1bc5d9ddfc9655bde5aa123e6cb15fe40f031088586f747"
)


def _service():
    return FederationService(
        golden_federation_clusters(),
        custody=CheckpointCustody(),
        stream_checkpoint=CheckpointPolicy(interval=1),
    )


def _run(shard_faults=None):
    service = _service()
    result = service.run_workload(
        golden_federated_stream_workload(), shard_faults=shard_faults
    )
    return service, result


def _stream_trace(service, result):
    """The stream job's trace, held only by the shard that completed it.

    A shard whose in-flight run was destroyed by a crash must not keep a
    trace for a job it never finished: the adopting shard is the one
    holder.
    """
    holders = [
        shard.shard_id
        for shard in service.shards
        if GOLDEN_FED_STREAM_JOB in shard.service.stream_traces
    ]
    assert holders == [dict(result.placements)[GOLDEN_FED_STREAM_JOB]]
    return service.shards[holders[0]].service.stream_traces[
        GOLDEN_FED_STREAM_JOB
    ]


def _sha256(trace):
    return hashlib.sha256(trace.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def fault_free():
    return _run()


@pytest.fixture(scope="module")
def crash_schedule(fault_free):
    """A shard crash dead-centre in the stream's occupancy window."""
    _, result = fault_free
    record = next(
        r for r in result.records if r.job_id == GOLDEN_FED_STREAM_JOB
    )
    owner = dict(result.placements)[GOLDEN_FED_STREAM_JOB]
    mid = record.start_s + 0.5 * (record.end_s - record.start_s)
    return owner, ShardFaultSchedule(
        crashes=(ShardCrash(time_s=mid, shard=owner, downtime_s=5.0),)
    )


@pytest.fixture(scope="module")
def disturbed(crash_schedule):
    owner, faults = crash_schedule
    service, result = _run(shard_faults=faults)
    return owner, service, result


class TestFaultFreeBaseline:
    def test_matches_golden_fixture(self, fault_free):
        service, result = fault_free
        trace = _stream_trace(service, result)
        assert trace + "\n" == FIXTURE.read_text()
        assert _sha256(trace) == STREAM_TRACE_SHA256

    def test_all_jobs_complete(self, fault_free):
        _, result = fault_free
        assert all(r.status == "completed" for r in result.records)
        assert len(result.records) == 3


class TestMidStreamFailover:
    def test_crash_and_failover_happened(self, disturbed):
        owner, _, result = disturbed
        assert owner == 2
        assert result.shard_crashes == 1
        assert result.failovers == 1

    def test_stream_completes_exactly_once(self, disturbed):
        _, _, result = disturbed
        records = [
            r for r in result.records if r.job_id == GOLDEN_FED_STREAM_JOB
        ]
        assert len(records) == 1
        assert records[0].status == "completed"

    def test_journal_proves_exactly_once_batches(self, disturbed):
        owner, service, _ = disturbed
        crashed = service.shards[owner].journal
        sealed = [
            e for e in crashed.entries if e.kind.startswith("checkpoint:")
        ]
        assert len(sealed) == 1
        cursor = int(sealed[0].kind.split(":", 1)[1])
        assert 0 <= cursor <= GOLDEN_STREAM_BATCHES
        assert sealed[0].job_id == GOLDEN_FED_STREAM_JOB
        assert any(
            e.kind == "failover_out"
            and e.job_id == GOLDEN_FED_STREAM_JOB
            for e in crashed.entries
        )
        resumed = [
            e
            for shard in service.shards
            if shard.shard_id != owner
            for e in shard.journal.entries
            if e.kind.startswith("resumed:")
        ]
        assert len(resumed) == 1
        assert resumed[0].job_id == GOLDEN_FED_STREAM_JOB
        # The adopting shard continued from exactly the sealed cursor:
        # batches 0..cursor-1 ran before the crash, cursor.. after it.
        assert int(resumed[0].kind.split(":", 1)[1]) == cursor

    def test_federation_event_announces_the_resume(self, disturbed):
        _, _, result = disturbed
        resumes = [e for e in result.events if e.kind == "stream_resume"]
        assert len(resumes) == 1
        assert resumes[0].job_id == GOLDEN_FED_STREAM_JOB

    def test_recovered_trace_is_byte_identical_to_golden(self, disturbed):
        _, service, result = disturbed
        trace = _stream_trace(service, result)
        assert trace + "\n" == FIXTURE.read_text()
        assert _sha256(trace) == STREAM_TRACE_SHA256
        # Every epoch exactly once: initial placement + one per batch.
        assert len(json.loads(trace)["epochs"]) == GOLDEN_STREAM_BATCHES + 1

    def test_two_disturbed_replays_are_byte_identical(self, crash_schedule):
        _, faults = crash_schedule
        first_service, first = _run(shard_faults=faults)
        second_service, second = _run(shard_faults=faults)
        assert first.trace_json() == second.trace_json()
        assert _stream_trace(first_service, first) == _stream_trace(
            second_service, second
        )


class TestCacheState:
    def test_failover_cold_and_warm(self, crash_schedule):
        _, faults = crash_schedule
        clear_all_caches()
        for _ in range(2):  # cold caches, then the caches the first run left
            service, result = _run(shard_faults=faults)
            assert result.shard_crashes == 1
            assert _stream_trace(service, result) + "\n" == (
                FIXTURE.read_text()
            )


class TestWithoutCustody:
    def test_failover_restarts_from_scratch_but_still_completes(
        self, crash_schedule
    ):
        owner, faults = crash_schedule
        service = FederationService(golden_federation_clusters())
        result = service.run_workload(
            golden_federated_stream_workload(), shard_faults=faults
        )
        records = [
            r for r in result.records if r.job_id == GOLDEN_FED_STREAM_JOB
        ]
        assert len(records) == 1
        assert records[0].status == "completed"
        for shard in service.shards:
            assert not any(
                e.kind.startswith(("checkpoint:", "resumed:"))
                for e in shard.journal.entries
            )

    def test_shards_share_one_custody(self):
        custody = CheckpointCustody()
        service = FederationService(
            golden_federation_clusters(), custody=custody
        )
        assert service.num_shards == GOLDEN_FED_SHARDS
        for shard in service.shards:
            assert shard.service.checkpoints is custody


class TestReplayTwiceOnOneInstance:
    def test_golden_workload_replays_byte_identically(self, crash_schedule):
        # Fault-free and with the mid-stream crash, on one federation:
        # the second replay of each must not see the first's journals,
        # clocks or stream artifacts.
        _, faults = crash_schedule
        service = _service()
        workload = golden_federated_stream_workload()
        for shard_faults in (None, faults):
            first = service.run_workload(workload, shard_faults=shard_faults)
            first_stream = _stream_trace(service, first)
            second = service.run_workload(workload, shard_faults=shard_faults)
            assert second.trace_json() == first.trace_json()
            assert _stream_trace(service, second) == first_stream
            assert _sha256(first_stream) == STREAM_TRACE_SHA256
