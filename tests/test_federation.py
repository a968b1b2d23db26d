"""Unit tests for the federation subsystem: journal, shard faults,
policies, routing, failover, stealing, recovery and workload format v2.
"""

import json

import pytest

from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.errors import (
    FaultError,
    FederationError,
    WorkloadFormatError,
)
from repro.faults import (
    ShardCrash,
    ShardFaultSchedule,
    ShardPartition,
    ShardSlowdown,
)
from repro.federation import (
    FederationPolicy,
    FederationService,
    ShardJournal,
)
from repro.kernels.cache import clear_all_caches
from repro.service import (
    BreakerPolicy,
    GraphSpec,
    JobRequest,
    ServicePolicy,
    Workload,
    generate_workload,
)
from repro.service.breaker import STATE_OPEN, BreakerBoard


def _cluster(*names):
    names = names or ("m4.2xlarge", "c4.2xlarge")
    return Cluster(
        [get_machine(n) for n in names],
        perf=PerformanceModel(model_scale=0.01),
    )


def _job(i, submit_s, vertices=600, **kw):
    return JobRequest(
        job_id=f"job-{i:04d}",
        app="connected_components",
        graph=GraphSpec(vertices=vertices),
        submit_s=submit_s,
        **kw,
    )


class TestFederationPolicy:
    def test_defaults_valid(self):
        policy = FederationPolicy()
        assert policy.ring_replicas == 64
        assert policy.max_global_backlog is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ring_replicas": 0},
            {"steal_backlog": 0},
            {"max_global_backlog": 0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(FederationError):
            FederationPolicy(**kwargs)

    def test_federation_needs_a_cluster(self):
        with pytest.raises(FederationError, match="at least one cluster"):
            FederationService([])


class TestShardJournal:
    def test_custody_replay(self):
        journal = ShardJournal(0)
        journal.append(0.0, "assigned", "a")
        journal.append(0.1, "assigned", "b")
        journal.append(0.2, "completed:completed", "a")
        journal.append(0.3, "failover_out", "b", "to shard 1")
        journal.append(0.4, "steal_in", "c", "from shard 2")
        state = journal.replay()
        assert state == {
            "a": "terminal", "b": "transferred", "c": "pending",
        }
        assert journal.pending_job_ids() == ("c",)

    def test_pending_order_is_first_custody_order(self):
        journal = ShardJournal(1)
        journal.append(0.0, "assigned", "z")
        journal.append(0.1, "assigned", "a")
        journal.append(0.2, "aborted", "z")
        assert journal.pending_job_ids() == ("z", "a")

    def test_aborted_does_not_release_custody(self):
        journal = ShardJournal(0)
        journal.append(0.0, "assigned", "a")
        journal.append(0.5, "aborted", "a", "in-flight run destroyed")
        assert journal.replay() == {"a": "pending"}

    def test_recovered_restores_custody(self):
        journal = ShardJournal(0)
        journal.append(0.0, "assigned", "a")
        journal.append(0.5, "recovered", "a")
        journal.append(0.6, "completed:completed", "a")
        assert journal.replay() == {"a": "terminal"}

    def test_time_must_be_monotone(self):
        journal = ShardJournal(0)
        journal.append(1.0, "assigned", "a")
        with pytest.raises(FederationError, match="backwards"):
            journal.append(0.5, "assigned", "b")

    def test_unknown_kind_rejected(self):
        journal = ShardJournal(0)
        with pytest.raises(FederationError, match="unknown journal kind"):
            journal.append(0.0, "vanished", "a")

    def test_sequence_numbers_dense(self):
        journal = ShardJournal(0)
        for i in range(5):
            journal.append(float(i), "assigned", f"j{i}")
        assert [e.seq for e in journal.entries] == [0, 1, 2, 3, 4]
        assert len(journal) == 5


class TestShardFaultSchedule:
    def test_generate_is_deterministic(self):
        kwargs = dict(
            num_shards=4, horizon_s=2.0, seed=9, crash_rate=0.8,
            partition_rate=0.5, slowdown_rate=0.5,
        )
        a = ShardFaultSchedule.generate(**kwargs)
        b = ShardFaultSchedule.generate(**kwargs)
        assert a == b
        assert a.num_events > 0

    def test_json_round_trip(self):
        schedule = ShardFaultSchedule.generate(
            num_shards=3, horizon_s=1.0, seed=4, crash_rate=0.9,
            partition_rate=0.9, slowdown_rate=0.9,
        )
        again = ShardFaultSchedule.from_json(schedule.to_json())
        assert again == schedule

    @pytest.mark.parametrize("seed", ['"a"', "1.5", "true", "[1]"])
    def test_non_integer_seed_rejected(self, seed):
        text = '{"seed": %s, "crashes": []}'
        with pytest.raises(FaultError, match="seed"):
            ShardFaultSchedule.from_json(text % seed)
        with pytest.raises(FaultError, match="seed"):
            ShardFaultSchedule(seed=json.loads(seed))
        assert ShardFaultSchedule.from_json(text % "7").seed == 7

    def test_validate_for_rejects_out_of_range_shards(self):
        schedule = ShardFaultSchedule(
            crashes=(ShardCrash(time_s=0.0, shard=5, downtime_s=1.0),)
        )
        with pytest.raises(FaultError, match="shard 5"):
            schedule.validate_for(2)
        schedule.validate_for(6)

    def test_sorted_events_total_order(self):
        schedule = ShardFaultSchedule(
            crashes=(ShardCrash(time_s=1.0, shard=1, downtime_s=1.0),),
            partitions=(
                ShardPartition(time_s=1.0, shard=0, duration_s=1.0),
            ),
            slowdowns=(
                ShardSlowdown(
                    time_s=0.5, shard=0, factor=2.0, duration_s=1.0
                ),
            ),
        )
        events = schedule.sorted_events()
        assert [type(e).__name__ for e in events] == [
            "ShardSlowdown", "ShardCrash", "ShardPartition",
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            dict(time_s=-1.0, shard=0, downtime_s=1.0),
            dict(time_s=0.0, shard=-1, downtime_s=1.0),
            dict(time_s=0.0, shard=0, downtime_s=0.0),
        ],
    )
    def test_bad_crash_rejected(self, bad):
        with pytest.raises(FaultError):
            ShardCrash(**bad)

    def test_speedup_is_not_a_fault(self):
        with pytest.raises(FaultError, match="speedups"):
            ShardSlowdown(time_s=0.0, shard=0, factor=0.5, duration_s=1.0)

    @pytest.mark.parametrize(
        "kind, field, bad",
        [
            (ShardCrash, "time_s", float("nan")),
            (ShardCrash, "shard", 1.5),
            (ShardCrash, "shard", True),
            (ShardCrash, "downtime_s", float("inf")),
            (ShardPartition, "time_s", float("inf")),
            (ShardPartition, "shard", 0.5),
            (ShardPartition, "duration_s", float("nan")),
            (ShardSlowdown, "time_s", "0"),
            (ShardSlowdown, "shard", 1.5),
            (ShardSlowdown, "factor", float("nan")),
            (ShardSlowdown, "duration_s", float("inf")),
        ],
    )
    def test_bad_field_type_rejected(self, kind, field, bad):
        good = {
            ShardCrash: dict(time_s=0.0, shard=0, downtime_s=1.0),
            ShardPartition: dict(time_s=0.0, shard=0, duration_s=1.0),
            ShardSlowdown: dict(time_s=0.0, shard=0, factor=2.0,
                                duration_s=1.0),
        }[kind]
        with pytest.raises(FaultError, match=field):
            kind(**{**good, field: bad})


class TestWorkloadFormatV2:
    def test_round_trip_with_shard_faults(self):
        workload = Workload(
            jobs=(_job(1, 0.0), _job(2, 0.5)),
            seed=3,
            shard_faults=ShardFaultSchedule(
                crashes=(ShardCrash(time_s=0.2, shard=0, downtime_s=0.4),)
            ),
        )
        text = workload.to_json()
        # Current version (v4 added mutation/fault composition);
        # shard_faults only needs >= 2 and older files still load.
        assert json.loads(text)["format_version"] == 4
        again = Workload.from_json(text)
        assert again == workload
        assert again.shard_faults is not None
        assert len(again.shard_faults.crashes) == 1

    def test_v1_files_still_load(self):
        text = json.dumps(
            {
                "format_version": 1,
                "seed": 7,
                "jobs": [
                    {
                        "job_id": "j1",
                        "app": "pagerank",
                        "graph": {"vertices": 600},
                    }
                ],
            }
        )
        workload = Workload.from_json(text)
        assert workload.seed == 7
        assert workload.shard_faults is None

    def test_shard_faults_require_v2(self):
        text = json.dumps(
            {
                "format_version": 1,
                "seed": 0,
                "jobs": [],
                "shard_faults": {"crashes": []},
            }
        )
        with pytest.raises(WorkloadFormatError, match="format_version >= 2"):
            Workload.from_json(text)

    def test_unsupported_version_named(self):
        with pytest.raises(WorkloadFormatError, match=r"\[1, 2, 3, 4\]"):
            Workload.from_json('{"format_version": 9, "jobs": []}')

    def test_malformed_shard_faults_located(self):
        text = json.dumps(
            {
                "format_version": 2,
                "seed": 0,
                "jobs": [],
                "shard_faults": {"crashes": [{"bogus": 1}]},
            }
        )
        with pytest.raises(WorkloadFormatError, match="shard_faults"):
            Workload.from_json(text)

    def test_bad_job_still_located(self):
        text = json.dumps(
            {
                "format_version": 2,
                "seed": 0,
                "jobs": [{"job_id": "a", "app": "pagerank"}],
            }
        )
        with pytest.raises(WorkloadFormatError, match=r"jobs\[0\]"):
            Workload.from_json(text)


class TestBreakerComposition:
    def test_all_open_reads_the_whole_board(self):
        board = BreakerBoard(2, BreakerPolicy(failure_threshold=1))
        assert not board.all_open()
        board.record_failures((0,), 0.0, "crash")
        assert not board.all_open()
        board.record_failures((1,), 0.1, "crash")
        assert board.all_open()
        assert all(s == STATE_OPEN for s in board.states())


class TestRoutingAndLocality:
    def test_same_graph_always_lands_on_the_same_shard(self):
        # Three distinct graphs, several submissions each, no faults: the
        # ring must pin each graph to one shard (warm caches).
        jobs = []
        for i in range(12):
            jobs.append(_job(i, 0.3 * i, vertices=600 + 100 * (i % 3)))
        workload = Workload(jobs=tuple(jobs), seed=1)
        service = FederationService([_cluster(), _cluster(), _cluster()])
        result = service.run_workload(workload)
        placements = dict(result.placements)
        by_graph = {}
        for job in jobs:
            by_graph.setdefault(job.graph.key(), set()).add(
                placements[job.job_id]
            )
        for key, shards in by_graph.items():
            assert len(shards) == 1, (key, shards)

    def test_graph_memo_is_shared_across_shards(self):
        service = FederationService([_cluster(), _cluster()])
        workload = Workload(jobs=(_job(1, 0.0), _job(2, 0.1)), seed=0)
        service.run_workload(workload)
        for shard in service.shards:
            assert shard.service._graphs is service._graphs

    def test_global_backlog_rejects_with_typed_reason(self):
        # A burst of simultaneous arrivals against a zero-capacity
        # federation bound: everything past the bound is shed globally.
        jobs = tuple(_job(i, 0.0) for i in range(6))
        workload = Workload(jobs=jobs, seed=0)
        service = FederationService(
            [_cluster()],
            federation=FederationPolicy(max_global_backlog=2),
        )
        result = service.run_workload(workload)
        reasons = [
            r.reason for r in result.records if r.status == "rejected"
        ]
        assert any("federation backlog" in reason for reason in reasons)

    def test_no_reachable_shard_rejects(self):
        # The only shard is down when the second job arrives.
        workload = Workload(
            jobs=(_job(1, 0.0), _job(2, 0.5)), seed=0
        )
        faults = ShardFaultSchedule(
            crashes=(ShardCrash(time_s=0.4, shard=0, downtime_s=10.0),)
        )
        service = FederationService([_cluster()])
        result = service.run_workload(workload, shard_faults=faults)
        rejected = [r for r in result.records if r.status == "rejected"]
        assert any(
            "no reachable shard" in r.reason for r in rejected
        )

    def test_schedule_against_missing_shard_rejected(self):
        service = FederationService([_cluster()])
        faults = ShardFaultSchedule(
            crashes=(ShardCrash(time_s=0.0, shard=3, downtime_s=1.0),)
        )
        with pytest.raises(FaultError, match="shard 3"):
            service.run_workload(
                Workload(jobs=(_job(1, 0.0),), seed=0),
                shard_faults=faults,
            )


class TestFailoverStealRecovery:
    def test_crash_fails_queued_jobs_over(self):
        # Two shards; crash the loaded one while it still holds a
        # backlog of ~1.6 ms jobs.  The queue must fail over to the
        # surviving shard and every job still ends in exactly one
        # terminal record.  (A 60000-vertex graph routes to shard 0 on a
        # 2-shard ring — every job shares the graph, so shard 0 holds
        # the whole backlog when the crash lands.)
        jobs = tuple(
            _job(i, 0.0005 * i, vertices=60000) for i in range(10)
        )
        workload = Workload(jobs=jobs, seed=0)
        faults = ShardFaultSchedule(
            crashes=(ShardCrash(time_s=0.004, shard=0, downtime_s=5.0),)
        )
        result = FederationService(
            [_cluster(), _cluster()],
            policy=ServicePolicy(max_queue_depth=16),
        ).run_workload(workload, shard_faults=faults)
        assert len(result.records) == len(jobs)
        assert {r.job_id for r in result.records} == {
            j.job_id for j in jobs
        }
        assert result.shard_crashes == 1
        assert result.failovers > 0
        # The surviving shard finished the failed-over backlog.
        ran_on = {
            dict(result.placements)[r.job_id]
            for r in result.records
            if r.status == "completed"
        }
        assert 1 in ran_on

    def test_idle_shard_steals_from_backlog(self):
        # Eight jobs on one graph flood shard 1 (vertices=600 routes
        # there on a 2-shard ring) while shard 0 gets a single job on
        # its own graph (vertices=1200).  Shard 0 drains, goes idle, and
        # must start relieving shard 1's backlog.
        flood = tuple(_job(i, 0.0, vertices=600) for i in range(8))
        lone = (_job(99, 0.0, vertices=1200),)
        workload = Workload(jobs=flood + lone, seed=0)
        result = FederationService(
            [_cluster(), _cluster()],
            policy=ServicePolicy(max_queue_depth=16),
            federation=FederationPolicy(steal_backlog=1),
        ).run_workload(workload)
        assert result.steals > 0
        placements = dict(result.placements)
        assert placements[lone[0].job_id] == 0
        assert any(placements[j.job_id] == 0 for j in flood)
        assert len(result.records) == len(flood) + 1

    def test_stranded_jobs_recover_through_the_journal(self):
        # One shard, crash mid-stream with jobs queued: no failover
        # target exists, so the journal replay must re-admit them.
        jobs = tuple(_job(i, 0.0, vertices=60000) for i in range(5))
        workload = Workload(jobs=jobs, seed=0)
        faults = ShardFaultSchedule(
            crashes=(ShardCrash(time_s=0.002, shard=0, downtime_s=0.5),)
        )
        result = FederationService(
            [_cluster()],
            policy=ServicePolicy(max_queue_depth=16),
        ).run_workload(workload, shard_faults=faults)
        assert result.recoveries > 0
        assert len(result.records) == len(jobs)
        journal = result.shards[0].journal
        kinds = [e.kind.split(":", 1)[0] for e in journal]
        assert "recovered" in kinds
        completed = [
            e.job_id for e in journal if e.kind.startswith("completed:")
        ]
        assert sorted(completed) == sorted(j.job_id for j in jobs)

    def test_slowdown_stretches_occupancy_not_records(self):
        jobs = tuple(_job(i, 0.0) for i in range(4))
        workload = Workload(jobs=jobs, seed=0)
        faults = ShardFaultSchedule(
            slowdowns=(
                ShardSlowdown(
                    time_s=0.0, shard=0, factor=10.0, duration_s=100.0
                ),
            )
        )
        slow = FederationService(
            [_cluster()], policy=ServicePolicy(max_queue_depth=16)
        ).run_workload(workload, shard_faults=faults)
        fast = FederationService(
            [_cluster()], policy=ServicePolicy(max_queue_depth=16)
        ).run_workload(workload)
        # Records are priced identically (the cluster is not slower)...
        assert [r.end_s - r.start_s for r in slow.records] == pytest.approx(
            [r.end_s - r.start_s for r in fast.records]
        )
        # ...but queue drain stretches: later starts are pushed out.
        slow_starts = sorted(r.start_s for r in slow.records)
        fast_starts = sorted(r.start_s for r in fast.records)
        assert slow_starts[-1] > fast_starts[-1]

    def test_partitioned_shard_keeps_draining_but_gets_nothing_new(self):
        jobs = tuple(_job(i, 0.05 * i) for i in range(6))
        workload = Workload(jobs=jobs, seed=0)
        faults = ShardFaultSchedule(
            partitions=(
                ShardPartition(time_s=0.0, shard=0, duration_s=50.0),
            )
        )
        result = FederationService(
            [_cluster(), _cluster()],
            policy=ServicePolicy(max_queue_depth=16),
        ).run_workload(workload, shard_faults=faults)
        placements = dict(result.placements)
        ran_on = {
            placements[r.job_id]
            for r in result.records
            if r.start_s is not None
        }
        assert ran_on == {1}
        assert len(result.records) == len(jobs)


#: Federated scale-out: a seeded 600-job Poisson workload (seed 17, mean
#: interarrival 0.02 s) replayed on 1, 4 and 8 m4/c4 shards at scale 0.01,
#: with one seeded mid-stream shard crash at widths above 1.  Per width:
#: (throughput jobs/sim-hour, p99 latency s, rejection rate, steals,
#: failovers, shard crashes), the first three rounded to 3, 9 and 6
#: decimals.
SCALE_OUT_BASELINE = {
    1: (12732.777, 10.257202326, 0.893333, 0, 0, 0),
    4: (83481.842, 4.903446695, 0.206667, 270, 0, 1),
    8: (119122.39, 6.402387511, 0.0, 329, 0, 1),
}


@pytest.fixture(scope="module")
def scale_out_summaries():
    workload = generate_workload(
        600,
        seed=17,
        mean_interarrival_s=0.02,
        deadline_fraction=0.2,
        fault_fraction=0.1,
        crash_rate=0.01,
    )
    horizon_s = max(j.submit_s for j in workload.jobs)
    summaries = {}
    for num_shards in SCALE_OUT_BASELINE:
        clear_all_caches()
        faults = ShardFaultSchedule()
        if num_shards > 1:
            faults = ShardFaultSchedule(
                crashes=(
                    ShardCrash(
                        time_s=round(horizon_s / 3.0, 6),
                        shard=num_shards - 1,
                        downtime_s=round(horizon_s / 10.0, 6),
                    ),
                )
            )
        service = FederationService(
            [_cluster() for _ in range(num_shards)],
            policy=ServicePolicy(max_queue_depth=8),
            federation=FederationPolicy(steal_backlog=2),
        )
        result = service.run_workload(workload, shard_faults=faults)
        summaries[num_shards] = result.summary()
    return summaries


class TestScaleOutBaseline:
    """The simulated metrics are deterministic functions of (workload seed,
    clusters, policies, fault schedule), so any drift means routing,
    stealing or recovery behaviour changed."""

    @pytest.mark.parametrize("num_shards", sorted(SCALE_OUT_BASELINE))
    def test_matches_recorded_metrics(self, scale_out_summaries, num_shards):
        summary = scale_out_summaries[num_shards]
        measured = (
            round(summary["throughput_jobs_per_sim_hour"], 3),
            round(summary["latency_p99_s"], 9),
            round(summary["rejection_rate"], 6),
            summary["steals"],
            summary["failovers"],
            summary["shard_crashes"],
        )
        assert measured == pytest.approx(
            SCALE_OUT_BASELINE[num_shards], rel=1e-6, abs=1e-6
        )


class TestReplayTwiceOnOneInstance:
    """A replay owes nothing to the previous one on the same instance:
    journals, queues, shard clocks, counters and breakers start afresh."""

    def test_second_replay_is_byte_identical(self):
        workload = generate_workload(
            40,
            seed=17,
            mean_interarrival_s=0.002,
            fault_fraction=0.5,
            crash_rate=0.2,
        )
        faults = ShardFaultSchedule(
            crashes=(ShardCrash(time_s=0.01, shard=1, downtime_s=0.02),)
        )
        service = FederationService(
            [_cluster(), _cluster()],
            policy=ServicePolicy(max_queue_depth=8),
            breaker_policy=BreakerPolicy(failure_threshold=1, cooldown_s=0.1),
            federation=FederationPolicy(steal_backlog=2),
        )
        first = service.run_workload(workload, shard_faults=faults)
        second = service.run_workload(workload, shard_faults=faults)
        assert first.shard_crashes == 1
        assert sum(s.breaker_trips for s in first.shards) > 0
        assert second.trace_json() == first.trace_json()
