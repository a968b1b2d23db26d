"""Tests for repro.engine.resilient (fault-aware pricing) and the
recovery settings of GraphProcessingSystem.

The contract under test, in order of importance:

1. *Opt-in*: with no faults to inject, the resilient path is the static
   path — reports match field for field.
2. *Recovery invariant*: faults change the bill, never the answer —
   application results under crash/replay equal the fault-free results.
3. *Determinism*: same seed, same schedule, same report.
4. *Bounded recovery*: a crash site that keeps failing raises
   RecoveryError instead of replaying forever.
"""

import numpy as np
import pytest

from repro.apps.pagerank import PageRank
from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.engine.report import ExecutionReport
from repro.engine.resilient import (
    ResilientExecutionReport,
    simulate_resilient_execution,
)
from repro.engine.runtime import GraphProcessingSystem
from repro.engine.distributed_graph import DistributedGraph
from repro.errors import ConvergenceError, FaultError, RecoveryError
from repro.faults.checkpoint import CheckpointPolicy, RetryPolicy
from repro.faults.supervisor import Supervisor
from repro.faults.schedule import (
    CrashFault,
    FaultSchedule,
    NetworkFault,
    SlowdownFault,
)
from repro.partition import make_partitioner
from repro.partition.weights import uniform_weights

SCALE = 0.002


@pytest.fixture(scope="module")
def cluster():
    return Cluster(
        [get_machine("m4.2xlarge")] * 2 + [get_machine("c4.2xlarge")] * 2,
        perf=PerformanceModel(model_scale=SCALE),
    )


@pytest.fixture(scope="module")
def graph():
    from repro.graph.datasets import load_dataset

    return load_dataset("wiki", scale=SCALE)


@pytest.fixture(scope="module")
def baseline(cluster, graph):
    """Fault-free trace + report on the shared cluster."""
    outcome = GraphProcessingSystem(cluster).run(
        PageRank(),
        graph,
        make_partitioner("hybrid"),
        weights=uniform_weights(cluster),
    )
    return outcome


def assert_reports_identical(a: ExecutionReport, b: ExecutionReport):
    assert type(a) is type(b)
    assert a.app == b.app
    assert a.runtime_seconds == b.runtime_seconds
    assert a.energy_joules == b.energy_joules
    assert a.machines == b.machines
    assert a.num_supersteps == b.num_supersteps
    assert a.warnings == b.warnings
    assert set(a.result) == set(b.result)
    for key in a.result:
        assert np.array_equal(a.result[key], b.result[key]), key


class TestOptIn:
    def test_none_schedule_identical(self, baseline, cluster):
        report = simulate_resilient_execution(baseline.trace, cluster)
        assert_reports_identical(report, baseline.report)

    def test_empty_schedule_identical(self, baseline, cluster):
        report = simulate_resilient_execution(
            baseline.trace, cluster, schedule=FaultSchedule()
        )
        assert_reports_identical(report, baseline.report)

    def test_runtime_fault_free_identical(self, baseline, cluster, graph):
        outcome = GraphProcessingSystem(
            cluster, faults=FaultSchedule(), rebalance=True
        ).run(PageRank(), graph, make_partitioner("hybrid"))
        assert_reports_identical(outcome.report, baseline.report)

    def test_faulted_run_returns_resilient_report(self, baseline, cluster):
        sched = FaultSchedule(
            slowdowns=(SlowdownFault(0, machine=0, factor=2.0, duration=1),)
        )
        report = simulate_resilient_execution(
            baseline.trace, cluster, schedule=sched
        )
        assert isinstance(report, ResilientExecutionReport)


class TestCrashRecovery:
    def crash_report(self, baseline, cluster, **kwargs):
        sched = FaultSchedule(
            crashes=(CrashFault(superstep=5, machine=1),), seed=3
        )
        return simulate_resilient_execution(
            baseline.trace, cluster, schedule=sched, **kwargs
        )

    def test_results_match_fault_free(self, baseline, cluster):
        report = self.crash_report(baseline, cluster)
        assert np.allclose(
            report.result["ranks"], baseline.report.result["ranks"]
        )

    def test_runtime_and_energy_strictly_higher(self, baseline, cluster):
        report = self.crash_report(baseline, cluster)
        assert report.runtime_seconds > baseline.report.runtime_seconds
        assert report.energy_joules > baseline.report.energy_joules

    def test_recovery_stats_accounted(self, baseline, cluster):
        report = self.crash_report(
            baseline, cluster, checkpoint=CheckpointPolicy(interval=3)
        )
        r = report.recovery
        assert r.crashes == 1
        assert [e.kind for e in report.events].count("crash") == 1
        # Crash at superstep 5 with checkpoints after 2 and 5... the crash
        # interrupts superstep 5, so the last snapshot is after step 2:
        # steps 3 and 4 are replayed, then superstep 5 is retried.
        assert r.replayed == 3
        assert r.restart_seconds > 0
        assert r.backoff_seconds > 0
        kinds = [e.kind for e in report.events]
        assert "crash" in kinds and "checkpoint" in kinds

    def test_no_checkpoints_replays_from_start(self, baseline, cluster):
        report = self.crash_report(
            baseline, cluster, checkpoint=CheckpointPolicy(interval=0)
        )
        assert report.recovery.checkpoints == 0
        assert report.recovery.replayed == 6

    def test_deterministic_given_seed(self, baseline, cluster):
        a = self.crash_report(baseline, cluster)
        b = self.crash_report(baseline, cluster)
        assert_reports_identical(a, b)
        assert a.recovery == b.recovery
        assert a.events == b.events

    def test_retry_budget_enforced(self, baseline, cluster):
        sched = FaultSchedule(
            crashes=(CrashFault(superstep=5, machine=1, repeats=5),), seed=3
        )
        with pytest.raises(RecoveryError, match="retry budget"):
            simulate_resilient_execution(
                baseline.trace,
                cluster,
                schedule=sched,
                retry=RetryPolicy(max_retries=2),
            )

    def test_repeats_within_budget_recover(self, baseline, cluster):
        sched = FaultSchedule(
            crashes=(CrashFault(superstep=5, machine=1, repeats=3),), seed=3
        )
        report = simulate_resilient_execution(
            baseline.trace, cluster, schedule=sched,
            retry=RetryPolicy(max_retries=3),
        )
        assert report.recovery.crashes == 3
        assert np.allclose(
            report.result["ranks"], baseline.report.result["ranks"]
        )


class TestDegradation:
    def test_slowdown_stretches_barrier(self, baseline, cluster):
        sched = FaultSchedule(
            slowdowns=(SlowdownFault(0, machine=0, factor=4.0, duration=None),)
        )
        report = simulate_resilient_execution(
            baseline.trace, cluster, schedule=sched,
            checkpoint=CheckpointPolicy(interval=0),
        )
        assert report.runtime_seconds > baseline.report.runtime_seconds
        # The straggler's busy time grew 4x; others unchanged.
        assert report.machines[0].busy_seconds == pytest.approx(
            4.0 * baseline.report.machines[0].busy_seconds
        )
        assert report.machines[1].busy_seconds == pytest.approx(
            baseline.report.machines[1].busy_seconds
        )

    def test_network_fault_stretches_comm(self, baseline, cluster):
        sched = FaultSchedule(
            network_faults=(
                NetworkFault(0, bandwidth_factor=10.0, latency_factor=10.0,
                             duration=None),
            )
        )
        report = simulate_resilient_execution(
            baseline.trace, cluster, schedule=sched,
            checkpoint=CheckpointPolicy(interval=0),
        )
        for faulted, clean in zip(report.machines, baseline.report.machines):
            assert faulted.comm_seconds > clean.comm_seconds

    def test_schedule_slot_out_of_range_rejected(self, baseline, cluster):
        sched = FaultSchedule(crashes=(CrashFault(0, machine=9),))
        with pytest.raises(FaultError, match="slot 9"):
            simulate_resilient_execution(
                baseline.trace, cluster, schedule=sched
            )


class TestRebalance:
    SCHED = FaultSchedule(
        slowdowns=(SlowdownFault(4, machine=0, factor=4.0, duration=None),),
        seed=5,
    )
    CKPT = CheckpointPolicy(interval=0, restart_seconds=0.0)

    def run(self, cluster, graph, **settings):
        settings.setdefault("faults", self.SCHED)
        settings.setdefault("checkpoint", self.CKPT)
        settings.setdefault("rebalance", True)
        return GraphProcessingSystem(cluster, **settings).run(
            PageRank(), graph, make_partitioner("hybrid")
        )

    def test_rebalance_beats_no_rebalance(self, cluster, graph):
        with_rb = self.run(cluster, graph)
        without_rb = self.run(cluster, graph, rebalance=False)
        assert with_rb.report.rebalance is not None
        assert without_rb.report.rebalance is None
        assert (
            with_rb.report.runtime_seconds
            < without_rb.report.runtime_seconds
        )

    def test_rebalance_is_off_by_default(self, cluster, graph):
        system = GraphProcessingSystem(cluster, faults=self.SCHED)
        outcome = system.run(PageRank(), graph, make_partitioner("hybrid"))
        assert outcome.report.rebalance is None

    def test_rebalanced_results_still_correct(self, cluster, graph, baseline):
        outcome = self.run(cluster, graph)
        assert outcome.report.rebalance is not None
        assert np.allclose(
            outcome.report.result["ranks"], baseline.report.result["ranks"]
        )

    def test_rebalance_feeds_monitor(self, cluster, graph):
        from repro.core.online import OnlineCCRMonitor
        from repro.core.profiler import ProxyProfiler
        from repro.core.proxy import ProxySet

        monitor = OnlineCCRMonitor(
            profiler=ProxyProfiler(
                proxies=ProxySet(num_vertices=1200, seed=61)
            ),
            apps=("pagerank",),
        )
        monitor.observe(cluster)
        self.run(cluster, graph, monitor=monitor)
        assert monitor.degradation("m4.2xlarge") > 1.0

    def test_each_run_gets_a_fresh_supervisor(self, cluster, graph):
        """A second run of one system re-calibrates from scratch, so it
        re-balances at the same superstep as the first."""
        system = GraphProcessingSystem(
            cluster, faults=self.SCHED, checkpoint=self.CKPT, rebalance=True
        )
        steps = [
            system.run(
                PageRank(), graph, make_partitioner("hybrid")
            ).report.rebalance.superstep
            for _ in range(2)
        ]
        assert steps == [6, 6]


class TestSupervisorReplay:
    """Replayed supersteps repeat timings the supervisor already saw, so
    a crash rollback must not move the re-balance verdict."""

    SLOW = SlowdownFault(4, machine=0, factor=4.0, duration=None)

    @pytest.mark.parametrize(
        "crashes", [(), (CrashFault(6, machine=2),)], ids=["clean", "crash"]
    )
    def test_crash_replay_does_not_hasten_rebalance(
        self, baseline, cluster, crashes
    ):
        spliced = []

        def rebalancer(superstep, factors):
            spliced.append(superstep)
            return baseline.trace, 0.0

        report = simulate_resilient_execution(
            baseline.trace,
            cluster,
            schedule=FaultSchedule(
                crashes=crashes, slowdowns=(self.SLOW,), seed=5
            ),
            checkpoint=CheckpointPolicy(interval=5),
            supervisor=Supervisor(),
            rebalancer=rebalancer,
        )
        assert report.recovery.crashes == len(crashes)
        assert report.rebalance.superstep == 6
        assert spliced == [6]


class TestStrictConvergence:
    def test_nonconvergence_raises_in_strict_mode(self, graph):
        app = PageRank(max_supersteps=2)
        app.strict = True
        part = make_partitioner("random_hash").partition(graph, 2)
        with pytest.raises(ConvergenceError, match="did not converge"):
            app.execute(DistributedGraph(part))

    def test_nonconvergence_warns_in_report(self, cluster, graph):
        outcome = GraphProcessingSystem(cluster).run(
            PageRank(max_supersteps=2),
            graph,
            make_partitioner("hybrid"),
            weights=uniform_weights(cluster),
        )
        assert outcome.report.result["converged"] is False
        assert any("did not converge" in w for w in outcome.report.warnings)

    def test_converged_report_has_no_warnings(self, baseline):
        assert baseline.report.warnings == ()


class TestSlotTaggedEnergy:
    def test_energy_attribution_survives_extra_samples(self, cluster):
        """Per-slot energy no longer depends on a k % m sample ordering."""
        from repro.cluster.power import EnergyCounter

        counter = EnergyCounter()
        # Recovery-style stream: slot 1 records twice in a row (a replay),
        # breaking any round-robin assumption.
        specs = cluster.machines
        counter.record(specs[0], 1.0, 2.0, slot=0)
        counter.record(specs[1], 1.0, 2.0, slot=1)
        counter.record(specs[1], 1.0, 2.0, slot=1)
        by_slot = counter.by_slot()
        assert set(by_slot) == {0, 1}
        # Slots 0 and 1 hold the same machine spec, so slot 1's two
        # identical samples must cost exactly twice slot 0's one.
        assert specs[0].name == specs[1].name
        assert by_slot[1] == pytest.approx(2 * by_slot[0])
