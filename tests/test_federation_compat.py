"""Backward-compat regression: a 1-shard federation IS the job service.

``FederationService`` is the library's one public replay.  With one
cluster and an empty shard-fault schedule it is the single job service
that ``repro serve`` runs without ``--shards``, and
:meth:`FederationResult.service_view` is that service's result.  The
hash of its trace is pinned as a golden fixture, so a change to the
replay loop that alters the service's history fails loudly.

Regenerate the fixture (only after an intentional semantic change)::

    PYTHONPATH=src python scripts/regen_federation_golden.py
"""

import hashlib
import pathlib

import pytest

from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.faults import ShardFaultSchedule
from repro.faults.checkpoint import CheckpointPolicy, RetryPolicy
from repro.faults.schedule import CrashFault, FaultSchedule
from repro.federation import FederationPolicy, FederationService
from repro.obs import Observer, enabled
from repro.service import (
    BreakerPolicy,
    GraphSpec,
    JobRequest,
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
def replay():
    """The compat workload in service mode: one cluster, no shard faults."""
    return FederationService([_cluster()], **_service_knobs()).run_workload(
        _workload(), shard_faults=ShardFaultSchedule()
    )


class TestOneShardIsTheJobService:
    def test_explicit_empty_shard_faults_change_nothing(self, replay):
        # A workload without an embedded schedule replays the same with
        # no schedule passed as with an explicit empty one.
        federated = FederationService(
            [_cluster()],
            federation=FederationPolicy(),
            **_service_knobs(),
        ).run_workload(_workload())
        assert federated.trace_json() == replay.trace_json()

    def test_one_shard_run_is_failover_free(self, replay):
        assert replay.shard_crashes == 0
        assert replay.failovers == 0
        assert replay.steals == 0
        assert replay.recoveries == 0
        assert replay.lost_seconds == 0.0


class TestGoldenTraceHash:
    def test_trace_hash_matches_golden(self, replay):
        if not GOLDEN_PATH.exists():
            pytest.fail(
                f"missing golden fixture {GOLDEN_PATH.name}; generate it "
                "with scripts/regen_federation_golden.py"
            )
        expected = GOLDEN_PATH.read_text(encoding="utf-8").strip()
        actual = hashlib.sha256(
            replay.service_view().trace_json().encode("utf-8")
        ).hexdigest()
        assert actual == expected, (
            "service trace drifted from the pinned golden hash; if the "
            "change is intentional, regenerate with "
            "scripts/regen_federation_golden.py"
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
            result = FederationService(
                [_cluster()],
                breaker_policy=BreakerPolicy(
                    failure_threshold=1, cooldown_s=0.1
                ),
            ).run_workload(Workload(jobs=jobs, seed=0)).service_view()
        assert result.breaker_trips > 0
        counters = observer.metrics.counters
        assert counters["service.breaker_trips"] == result.breaker_trips
        roots = [s.name for s in observer.spans if s.parent_id is None]
        assert roots == ["federation/run"]

    def test_custody_cleared_after_each_commit(self):
        # A committed stream job leaves no custody behind, so replaying
        # the workload again over the same custody restarts the stream
        # instead of resuming from its last snapshot.
        custody = CheckpointCustody()
        workload = golden_federated_stream_workload()

        def replay_over_custody():
            federation = FederationService(
                golden_federation_clusters()[:1],
                custody=custody,
                stream_checkpoint=CheckpointPolicy(interval=1),
            )
            result = federation.run_workload(workload)
            assert custody._entries == {}
            assert "stream_resume" not in {e.kind for e in result.events}
            return result

        first = replay_over_custody()
        second = replay_over_custody()
        assert second.records == first.records
