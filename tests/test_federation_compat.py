"""Backward-compat regression: a 1-shard federation IS the job service.

``JobService.run_workload`` has no replay loop of its own: it runs the
federation's loop with the service as the only shard.  A 1-shard,
no-shard-fault federation built from cluster specs must therefore agree
with it byte for byte — records, breaker history, totals and trace
bytes — and the service must ignore shard faults embedded in a
workload.  The trace hash is pinned as a golden fixture, so a change to
the shared loop that alters the service's history fails loudly.

Regenerate the fixture (only after an intentional semantic change)::

    PYTHONPATH=src python scripts/regen_federation_golden.py
"""

import hashlib
import pathlib

import pytest

from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.faults import ShardCrash, ShardFaultSchedule
from repro.faults.checkpoint import CheckpointPolicy, RetryPolicy
from repro.faults.schedule import CrashFault, FaultSchedule
from repro.federation import FederationPolicy, FederationService
from repro.obs import Observer, enabled
from repro.service import (
    BreakerPolicy,
    GraphSpec,
    JobRequest,
    JobService,
    ServicePolicy,
    Workload,
    generate_workload,
)
from repro.streaming import CheckpointCustody
from repro.testing import (
    golden_federated_stream_workload,
    golden_federation_clusters,
)

GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "golden" / "federation_compat.sha256"
)

NUM_JOBS = 40


def _workload():
    return generate_workload(
        NUM_JOBS,
        seed=13,
        mean_interarrival_s=0.05,
        deadline_fraction=0.25,
        fault_fraction=0.2,
        crash_rate=0.02,
        hot_machine=1,
        hot_fraction=0.1,
        hot_repeats=1,
    )


def _cluster():
    return Cluster(
        [get_machine("m4.2xlarge"), get_machine("c4.2xlarge")],
        perf=PerformanceModel(model_scale=0.01),
    )


def _service_knobs():
    return dict(
        policy=ServicePolicy(max_queue_depth=4, max_attempts=2),
        breaker_policy=BreakerPolicy(failure_threshold=3, cooldown_s=1.0),
        checkpoint=CheckpointPolicy(interval=5, restart_seconds=0.05),
        engine_retry=RetryPolicy(max_retries=2, backoff_base_s=0.01),
    )


@pytest.fixture(scope="module")
def replays():
    workload = _workload()
    cluster = _cluster()
    direct = JobService(cluster, **_service_knobs()).run_workload(workload)
    federated = FederationService(
        [cluster], **_service_knobs()
    ).run_workload(workload)
    return direct, federated


class TestOneShardIsTheJobService:
    def test_traces_byte_identical(self, replays):
        direct, federated = replays
        assert federated.service_view().trace_json() == direct.trace_json()

    def test_records_identical(self, replays):
        direct, federated = replays
        assert federated.records == direct.records

    def test_breaker_history_identical(self, replays):
        direct, federated = replays
        view = federated.service_view()
        assert view.breaker_events == direct.breaker_events
        assert view.breaker_states == direct.breaker_states
        assert view.breaker_trips == direct.breaker_trips

    def test_makespan_and_depth_identical(self, replays):
        direct, federated = replays
        view = federated.service_view()
        assert view.makespan_s == direct.makespan_s
        assert view.max_queue_depth == direct.max_queue_depth

    def test_service_summary_keys_agree(self, replays):
        direct, federated = replays
        fed_summary = federated.summary()
        for key, value in direct.summary().items():
            assert fed_summary[key] == value, key

    def test_explicit_empty_shard_faults_change_nothing(self, replays):
        direct, _ = replays
        federated = FederationService(
            [_cluster()],
            federation=FederationPolicy(),
            **_service_knobs(),
        ).run_workload(_workload(), shard_faults=ShardFaultSchedule())
        assert federated.service_view().trace_json() == direct.trace_json()

    def test_one_shard_run_is_failover_free(self, replays):
        _, federated = replays
        assert federated.shard_crashes == 0
        assert federated.failovers == 0
        assert federated.steals == 0
        assert federated.recoveries == 0
        assert federated.lost_seconds == 0.0


class TestGoldenTraceHash:
    def test_trace_hash_matches_golden(self, replays):
        direct, federated = replays
        if not GOLDEN_PATH.exists():
            pytest.fail(
                f"missing golden fixture {GOLDEN_PATH.name}; generate it "
                "with scripts/regen_federation_golden.py"
            )
        expected = GOLDEN_PATH.read_text(encoding="utf-8").strip()
        actual = hashlib.sha256(
            direct.trace_json().encode("utf-8")
        ).hexdigest()
        assert actual == expected, (
            "service trace drifted from the pinned golden hash; if the "
            "change is intentional, regenerate with "
            "scripts/regen_federation_golden.py"
        )
        assert (
            hashlib.sha256(
                federated.service_view().trace_json().encode("utf-8")
            ).hexdigest()
            == expected
        )


class TestOneReplayLoop:
    def test_observed_breaker_trips_counter_matches_result(self):
        # Every job crashes machine 0 once; a one-failure threshold with a
        # short cooldown trips that breaker again and again.
        crashing = FaultSchedule(crashes=(CrashFault(1, machine=0),), seed=0)
        graph = GraphSpec(vertices=300, alpha=2.1, seed=0)
        jobs = tuple(
            JobRequest(
                job_id=f"j{i}", app="pagerank", graph=graph,
                submit_s=0.5 * i, faults=crashing,
            )
            for i in range(4)
        )
        observer = Observer()
        with enabled(observer):
            result = JobService(
                _cluster(),
                breaker_policy=BreakerPolicy(
                    failure_threshold=1, cooldown_s=0.1
                ),
            ).run_workload(Workload(jobs=jobs, seed=0))
        assert result.breaker_trips > 0
        counters = observer.metrics.counters
        assert counters["service.breaker_trips"] == result.breaker_trips
        roots = [s.name for s in observer.spans if s.parent_id is None]
        assert roots == ["federation/run"]

    def test_embedded_shard_faults_are_ignored(self, replays):
        direct, _ = replays
        plain = _workload()
        crash = ShardCrash(time_s=0.5, shard=0, downtime_s=0.2)
        faulted = Workload(
            jobs=plain.jobs,
            seed=plain.seed,
            shard_faults=ShardFaultSchedule(crashes=(crash,)),
        )
        # The crash bites a federation that honours the embedded schedule...
        honoured = FederationService(
            [_cluster()], **_service_knobs()
        ).run_workload(faulted)
        assert honoured.shard_crashes == 1
        assert honoured.service_view().trace_json() != direct.trace_json()
        # ...but one service has no shard to crash.
        service = JobService(_cluster(), **_service_knobs())
        assert service.run_workload(faulted).trace_json() == (
            direct.trace_json()
        )

    def test_custody_cleared_after_each_commit(self):
        # As in any federation, a committed stream job leaves no custody
        # behind, so replaying the workload again on the same service
        # restarts the stream instead of resuming from its last snapshot.
        custody = CheckpointCustody()
        service = JobService(
            golden_federation_clusters()[0],
            checkpoints=custody,
            stream_checkpoint=CheckpointPolicy(interval=1),
        )
        workload = golden_federated_stream_workload()
        first = service.run_workload(workload)
        assert custody._entries == {}
        second = service.run_workload(workload)
        assert second.records == first.records
        assert service.stream_resumes == {}
