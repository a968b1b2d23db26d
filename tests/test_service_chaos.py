"""Chaos soak: a faulty 60-job stream obeys the service invariants.

The stream mixes deadlines, seeded crash faults and scripted hot-machine
crashes under a tight queue, then the replay is checked against the
ledger invariants the service guarantees:

* no job is lost — every submission gets exactly one terminal record;
* the simulated clock is monotone and the single server never overlaps
  two runs;
* time/energy conservation — the summary totals are exactly the sums of
  the per-record charges, and jobs that never ran are charged nothing;
* two same-seed replays produce byte-identical traces.
"""

import pytest

from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.faults.checkpoint import CheckpointPolicy, RetryPolicy
from repro.federation import FederationService
from repro.service import (
    JOB_STATUSES,
    BreakerPolicy,
    ServicePolicy,
    generate_workload,
)

NUM_JOBS = 60


@pytest.fixture(scope="module")
def soak():
    """One chaotic replay, shared by every invariant check below."""
    workload = generate_workload(
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
    cluster = Cluster(
        [get_machine("m4.2xlarge"), get_machine("c4.2xlarge")],
        perf=PerformanceModel(model_scale=0.01),
    )

    def run():
        service = FederationService(
            [cluster],
            policy=ServicePolicy(max_queue_depth=4, max_attempts=2),
            breaker_policy=BreakerPolicy(failure_threshold=3, cooldown_s=1.0),
            checkpoint=CheckpointPolicy(interval=5, restart_seconds=0.05),
            engine_retry=RetryPolicy(max_retries=2, backoff_base_s=0.01),
        )
        return service.run_workload(workload).service_view()

    return workload, run(), run()


class TestNoJobLost:
    def test_every_submission_has_one_terminal_record(self, soak):
        workload, result, _ = soak
        assert len(result.records) == NUM_JOBS
        assert sorted(r.job_id for r in result.records) == sorted(
            j.job_id for j in workload.jobs
        )
        assert all(r.status in JOB_STATUSES for r in result.records)

    def test_statuses_partition_the_submissions(self, soak):
        _, result, _ = soak
        counts = result.by_status()
        assert sum(counts.values()) == NUM_JOBS
        summary = result.summary()
        assert summary["jobs_submitted"] == NUM_JOBS
        assert (
            summary["jobs_completed"] + summary["jobs_rejected"]
            + summary["jobs_deadline_exceeded"] + summary["jobs_failed"]
        ) == NUM_JOBS

    def test_chaos_actually_happened(self, soak):
        _, result, _ = soak
        counts = result.by_status()
        # The stream is tuned so every terminal path is exercised.
        assert counts["completed"] > 0
        assert counts["rejected"] > 0
        assert counts["deadline_exceeded"] > 0
        assert sum(r.crashes for r in result.records) > 0


class TestMonotoneClock:
    def test_per_job_times_ordered(self, soak):
        _, result, _ = soak
        for r in result.records:
            assert r.submit_s >= 0.0
            if r.start_s is not None:
                assert r.start_s >= r.submit_s
            if r.end_s is not None:
                assert r.end_s >= r.start_s

    def test_single_server_runs_never_overlap(self, soak):
        _, result, _ = soak
        ran = sorted(
            (r for r in result.records if r.start_s is not None),
            key=lambda r: r.start_s,
        )
        assert ran
        for prev, cur in zip(ran, ran[1:]):
            assert cur.start_s >= prev.end_s

    def test_makespan_covers_every_finish(self, soak):
        _, result, _ = soak
        last_end = max(
            r.end_s for r in result.records if r.end_s is not None
        )
        assert result.makespan_s == last_end


class TestConservation:
    def test_summary_totals_are_record_sums(self, soak):
        _, result, _ = soak
        summary = result.summary()
        assert summary["charged_seconds_total"] == sum(
            r.charged_seconds for r in result.records
        )
        assert summary["charged_energy_joules_total"] == sum(
            r.charged_energy_joules for r in result.records
        )
        assert summary["retry_backoff_seconds_total"] == sum(
            r.retries_backoff_s for r in result.records
        )

    def test_jobs_that_never_ran_cost_nothing(self, soak):
        _, result, _ = soak
        for r in result.records:
            if r.start_s is None or r.end_s == r.start_s:
                assert r.charged_seconds == 0.0
                assert r.charged_energy_joules == 0.0

    def test_charges_bounded_by_occupancy(self, soak):
        _, result, _ = soak
        for r in result.records:
            if r.end_s is not None and r.start_s is not None:
                occupancy = r.end_s - r.start_s
                assert r.charged_seconds <= occupancy + 1e-12
            assert r.charged_seconds >= 0.0
            assert r.charged_energy_joules >= 0.0


class TestReplayDeterminism:
    def test_two_same_seed_runs_are_byte_identical(self, soak):
        _, first, second = soak
        assert first.trace_json() == second.trace_json()

    def test_summaries_match_exactly(self, soak):
        _, first, second = soak
        assert first.summary() == second.summary()

    def test_breaker_histories_match(self, soak):
        _, first, second = soak
        assert first.breaker_events == second.breaker_events
        assert first.breaker_states == second.breaker_states
