"""Unit tests for repro.service.service (admission, deadlines, shedding).

Each test replays a small hand-built workload on the m4/c4 pair at a
tiny performance scale, so runs execute the real engine but finish in
milliseconds of wall time.
"""

import pytest

from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.errors import ServiceError
from repro.faults.checkpoint import CheckpointPolicy, RetryPolicy
from repro.faults.schedule import CrashFault, FaultSchedule
from repro.federation import FederationService
from repro.kernels.cache import clear_all_caches
from repro.service import (
    STATUS_COMPLETED,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_FAILED,
    STATUS_REJECTED,
    GraphSpec,
    JobRequest,
    ServicePolicy,
    Workload,
    generate_workload,
)

GRAPH = GraphSpec(vertices=300, alpha=2.1, seed=0)


@pytest.fixture
def pair() -> Cluster:
    return Cluster(
        [get_machine("m4.2xlarge"), get_machine("c4.2xlarge")],
        perf=PerformanceModel(model_scale=0.01),
    )


def replay(cluster, workload, **knobs):
    """The service result of replaying ``workload`` on one cluster."""
    return FederationService([cluster], **knobs).run_workload(
        workload
    ).service_view()


def job(job_id, submit_s=0.0, priority=0, **kwargs):
    return JobRequest(job_id=job_id, app="pagerank", graph=GRAPH,
                      submit_s=submit_s, priority=priority, **kwargs)


class TestPolicyValidation:
    def test_rejects_zero_queue_depth(self):
        with pytest.raises(ServiceError, match="max_queue_depth"):
            ServicePolicy(max_queue_depth=0)

    def test_rejects_non_positive_projected_wait(self):
        with pytest.raises(ServiceError, match="max_projected_wait_s"):
            ServicePolicy(max_projected_wait_s=0.0)

    def test_rejects_zero_attempts(self):
        with pytest.raises(ServiceError, match="max_attempts"):
            ServicePolicy(max_attempts=0)


class TestAdmission:
    def test_burst_overflowing_queue_is_rejected(self, pair):
        workload = Workload(
            jobs=tuple(job(f"j{i}") for i in range(6)), seed=0
        )
        result = replay(
            pair, workload, policy=ServicePolicy(max_queue_depth=2)
        )
        counts = result.by_status()
        # The whole t=0 batch contends for the two queue slots before the
        # server picks up any work: two admitted, four rejected.
        assert counts[STATUS_REJECTED] == 4
        assert counts[STATUS_COMPLETED] == 2
        rejected = [r for r in result.records if r.status == STATUS_REJECTED]
        for r in rejected:
            assert r.start_s is None and r.end_s is None
            assert r.charged_seconds == 0.0
            assert r.charged_energy_joules == 0.0
            assert "queue full" in r.reason

    def test_projected_wait_bound_rejects(self, pair):
        workload = Workload(jobs=(job("a"), job("b"), job("c")), seed=0)
        result = replay(
            pair,
            workload,
            policy=ServicePolicy(max_queue_depth=50,
                                 max_projected_wait_s=1e-9),
        )
        # "a" goes straight to the idle server; the rest would wait.
        by_id = {r.job_id: r for r in result.records}
        assert by_id["a"].status == STATUS_COMPLETED
        assert by_id["b"].status == STATUS_REJECTED
        assert "projected wait" in by_id["b"].reason

    def test_invalid_fault_schedule_rejected_at_admission(self, pair):
        bad = FaultSchedule(crashes=(CrashFault(1, machine=9),), seed=0)
        workload = Workload(jobs=(job("a", faults=bad),), seed=0)
        result = replay(pair, workload)
        assert result.records[0].status == STATUS_REJECTED
        assert "invalid fault schedule" in result.records[0].reason

    def test_jobs_arriving_after_server_frees_are_admitted(self, pair):
        workload = Workload(
            jobs=(job("a"), job("b", submit_s=30.0)), seed=0
        )
        result = replay(
            pair, workload, policy=ServicePolicy(max_queue_depth=1)
        )
        assert result.by_status()[STATUS_REJECTED] == 0


class TestDeadlines:
    def test_unmeetable_deadline_cancelled_before_running(self, pair):
        workload = Workload(jobs=(job("a", deadline_s=1e-9),), seed=0)
        record = replay(pair, workload).records[0]
        assert record.status == STATUS_DEADLINE_EXCEEDED
        assert record.attempts == 0
        assert record.charged_seconds == 0.0
        assert record.charged_energy_joules == 0.0
        assert record.end_s == record.start_s
        assert "projected finish" in record.reason

    def test_overrun_cancelled_at_deadline_and_prorated(self, pair):
        # The fault-free projection fits inside the deadline, but the
        # crash's recovery pause pushes the real finish far past it.
        crashing = FaultSchedule(crashes=(CrashFault(1, machine=0),), seed=0)
        workload = Workload(
            jobs=(job("a", deadline_s=0.5, faults=crashing),), seed=0
        )
        record = replay(
            pair,
            workload,
            checkpoint=CheckpointPolicy(interval=5, restart_seconds=2.0),
        ).records[0]
        assert record.status == STATUS_DEADLINE_EXCEEDED
        assert record.attempts == 1
        assert record.end_s == pytest.approx(0.5)
        # Charged for the share actually consumed, not the full run.
        assert 0.0 < record.charged_seconds <= 0.5
        assert record.charged_energy_joules > 0.0

    def test_generous_deadline_completes(self, pair):
        workload = Workload(jobs=(job("a", deadline_s=1000.0),), seed=0)
        record = replay(pair, workload).records[0]
        assert record.status == STATUS_COMPLETED
        assert record.end_s < 1000.0


class TestRetriesAndFailure:
    def retry_replay(self, pair, workload, max_attempts=2):
        return replay(
            pair,
            workload,
            policy=ServicePolicy(max_attempts=max_attempts),
            checkpoint=CheckpointPolicy(interval=5, restart_seconds=0.01),
            engine_retry=RetryPolicy(max_retries=1, backoff_base_s=0.001),
        )

    def test_unrecoverable_job_fails_after_all_attempts(self, pair):
        hopeless = FaultSchedule(
            crashes=(CrashFault(1, machine=0, repeats=10),), seed=0
        )
        workload = Workload(jobs=(job("a", faults=hopeless),), seed=0)
        record = self.retry_replay(pair, workload).records[0]
        assert record.status == STATUS_FAILED
        assert record.attempts == 2
        assert record.charged_seconds == 0.0
        assert record.retries_backoff_s > 0.0

    def test_max_attempts_is_the_one_attempt_budget(self, pair):
        assert ServicePolicy(max_attempts=3).retry.max_retries == 2
        hopeless = FaultSchedule(
            crashes=(CrashFault(1, machine=0, repeats=10),), seed=0
        )
        workload = Workload(jobs=(job("a", faults=hopeless),), seed=0)
        record = self.retry_replay(pair, workload, max_attempts=3).records[0]
        assert record.attempts == 3
        assert record.reason.startswith("all 3 attempts failed; last: ")

    def test_backoff_is_seeded_and_reproducible(self, pair):
        hopeless = FaultSchedule(
            crashes=(CrashFault(1, machine=0, repeats=10),), seed=0
        )
        workload = Workload(jobs=(job("a", faults=hopeless),), seed=0)
        first = self.retry_replay(pair, workload).records[0]
        second = self.retry_replay(pair, workload).records[0]
        assert first.retries_backoff_s == second.retries_backoff_s

    def test_recoverable_crash_completes_with_crash_count(self, pair):
        crashing = FaultSchedule(crashes=(CrashFault(1, machine=0),), seed=0)
        workload = Workload(jobs=(job("a", faults=crashing),), seed=0)
        record = self.retry_replay(pair, workload).records[0]
        assert record.status == STATUS_COMPLETED
        assert record.crashes >= 1
        assert record.charged_seconds > 0.0


class TestShedding:
    def shed_replay(self, pair, workload):
        return replay(
            pair,
            workload,
            policy=ServicePolicy(
                max_queue_depth=8, shed_queue_depth=2,
                shed_priority_max=0, shed_iteration_cap=3,
            ),
        )

    def test_low_priority_jobs_run_degraded_under_backlog(self, pair):
        workload = Workload(
            jobs=tuple(job(f"j{i}") for i in range(4)), seed=0
        )
        result = self.shed_replay(pair, workload)
        by_id = {r.job_id: r for r in result.records}
        # j0 starts with 3 jobs queued behind it: shed.  The last job
        # starts with an empty backlog: full fidelity.
        assert by_id["j0"].degraded
        assert not by_id["j3"].degraded
        assert by_id["j0"].status == STATUS_COMPLETED
        assert 0 < by_id["j0"].supersteps < by_id["j3"].supersteps

    def test_high_priority_jobs_never_shed(self, pair):
        workload = Workload(
            jobs=tuple(job(f"j{i}", priority=3) for i in range(4)), seed=0
        )
        result = self.shed_replay(pair, workload)
        assert all(not r.degraded for r in result.records)

    def test_priority_orders_the_queue(self, pair):
        workload = Workload(
            jobs=(job("low-a"), job("hi", priority=9), job("low-b")),
            seed=0,
        )
        result = replay(pair, workload)
        by_id = {r.job_id: r for r in result.records}
        # All three arrive together, so the highest priority runs first.
        started = sorted(
            (r.start_s, r.job_id) for r in result.records
        )
        assert started[0][1] == "hi"
        assert by_id["hi"].status == STATUS_COMPLETED


class TestAccountingAndDeterminism:
    def test_summary_totals_match_records(self, pair):
        workload = Workload(
            jobs=tuple(job(f"j{i}") for i in range(5)), seed=0
        )
        result = replay(
            pair, workload, policy=ServicePolicy(max_queue_depth=2)
        )
        summary = result.summary()
        assert summary["charged_seconds_total"] == sum(
            r.charged_seconds for r in result.records
        )
        assert summary["charged_energy_joules_total"] == sum(
            r.charged_energy_joules for r in result.records
        )
        assert summary["jobs_submitted"] == 5
        assert (
            summary["jobs_completed"] + summary["jobs_rejected"]
            + summary["jobs_deadline_exceeded"] + summary["jobs_failed"]
        ) == 5

    def test_records_sorted_by_submit_then_id(self, pair):
        workload = Workload(
            jobs=(job("z"), job("a", submit_s=0.0), job("m", submit_s=5.0)),
            seed=0,
        )
        result = replay(pair, workload)
        assert [r.job_id for r in result.records] == ["a", "z", "m"]

    def test_same_workload_same_trace(self, pair):
        workload = Workload(
            jobs=tuple(
                job(f"j{i}", submit_s=0.001 * i, priority=i % 2)
                for i in range(6)
            ),
            seed=3,
        )
        first = replay(pair, workload).trace_json()
        second = replay(pair, workload).trace_json()
        assert first == second


#: The service under three arrival rates: a seeded 60-job Poisson
#: workload (seed 11) replayed on the m4/c4 pair at scale 0.01.  Per rate:
#: (mean interarrival gap s, throughput jobs/sim-hour, p99 latency s,
#: rejection rate), the metrics rounded to 3, 9 and 6 decimals.  Mean
#: service time is roughly 0.2 simulated seconds per job, so the rates
#: sit below, at, and well above the service rate.
ARRIVAL_RATE_BASELINE = {
    "light": (0.5, 7019.279, 2.617169748, 0.0),
    "saturating": (0.2, 15100.51, 2.577631368, 0.166667),
    "overload": (0.05, 15770.439, 2.59931544, 0.716667),
}


@pytest.fixture(scope="module")
def arrival_rate_summaries():
    summaries = {}
    for name, (gap, *_) in ARRIVAL_RATE_BASELINE.items():
        clear_all_caches()
        workload = generate_workload(
            60,
            seed=11,
            mean_interarrival_s=gap,
            deadline_fraction=0.2,
            fault_fraction=0.1,
            crash_rate=0.01,
        )
        cluster = Cluster(
            [get_machine("m4.2xlarge"), get_machine("c4.2xlarge")],
            perf=PerformanceModel(model_scale=0.01),
        )
        summaries[name] = replay(
            cluster, workload, policy=ServicePolicy(max_queue_depth=8)
        ).summary()
    return summaries


class TestArrivalRateBaseline:
    """The simulated metrics are deterministic functions of (workload seed,
    cluster, policy), so any drift means the scheduling behaviour changed."""

    @pytest.mark.parametrize("rate", sorted(ARRIVAL_RATE_BASELINE))
    def test_matches_recorded_metrics(self, arrival_rate_summaries, rate):
        summary = arrival_rate_summaries[rate]
        measured = (
            round(summary["throughput_jobs_per_sim_hour"], 3),
            round(summary["latency_p99_s"], 9),
            round(summary["rejection_rate"], 6),
        )
        assert measured == pytest.approx(
            ARRIVAL_RATE_BASELINE[rate][1:], rel=1e-6, abs=1e-6
        )
