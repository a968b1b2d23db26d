"""Differential proof that observability is inert (zero perturbation).

The obs subsystem's contract: enabling an observer must not change a
single byte of what the simulation computes.  These tests run identical
workloads dark and instrumented and compare canonical trace JSON, app
results, priced reports — including under a fault schedule with crashes,
slowdowns and a mid-run re-balance, both through a faulted
:class:`GraphProcessingSystem` and through
:func:`simulate_resilient_execution` with its own supervisor and
re-balancer.

Observed runs use the kernel caches like any other run, so a test that
asserts spans clears the caches first: work served from a cache is not
re-executed, and so is not traced.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.apps import make_app
from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineSpec
from repro.engine.report import simulate_execution
from repro.engine.resilient import simulate_resilient_execution
from repro.engine.runtime import GraphProcessingSystem, execute_partition
from repro.faults import CrashFault, FaultSchedule, SlowdownFault, Supervisor
from repro.kernels.cache import clear_all_caches
from repro.obs import Observer, enabled
from repro.partition import make_partitioner
from repro.testing import GOLDEN_APPS, golden_cluster, golden_graph, golden_run


@pytest.fixture(scope="module")
def graph():
    return golden_graph()


@pytest.mark.parametrize("app", GOLDEN_APPS)
class TestObsInertOnStaticPath:
    def test_trace_and_results_byte_identical(self, app, graph):
        dark = golden_run(app, graph=graph)

        clear_all_caches()
        observer = Observer()
        with enabled(observer):
            lit = golden_run(app, graph=graph)

        # The observer actually observed — this is a differential test,
        # not two no-op runs compared to each other.
        assert observer.spans, "observer captured no spans"
        assert observer.metrics.counters, "observer captured no metrics"

        assert lit.trace.canonical_json() == dark.trace.canonical_json()
        assert np.array_equal(
            lit.partition.assignment, dark.partition.assignment
        )

    def test_priced_report_identical(self, app, graph):
        dark = golden_run(app, graph=graph)
        with enabled(Observer()):
            lit_report = simulate_execution(
                golden_run(app, graph=graph).trace, golden_cluster()
            )
        assert lit_report.runtime_seconds == dark.report.runtime_seconds
        assert lit_report.energy_joules == dark.report.energy_joules


class TestObsInertUnderFaults:
    """The resilient path emits far more events; it must stay inert too."""

    @staticmethod
    def _cluster() -> Cluster:
        slow = MachineSpec(
            "slow", hw_threads=4, freq_ghz=2.0, mem_bw_gbs=8.0, llc_mb=4.0
        )
        fast = MachineSpec(
            "fast", hw_threads=6, freq_ghz=4.0, mem_bw_gbs=16.0, llc_mb=8.0
        )
        return Cluster([slow, fast])

    @staticmethod
    def _schedule() -> FaultSchedule:
        return FaultSchedule(
            crashes=(CrashFault(superstep=2, machine=0),),
            slowdowns=(
                SlowdownFault(superstep=3, machine=0, factor=4.0, duration=30),
            ),
            seed=11,
        )

    def _run(self, graph, runner="system"):
        """``(trace, report)`` of one faulted pagerank run.

        ``system`` runs a faulted :class:`GraphProcessingSystem`;
        ``supervisor`` prices through :func:`simulate_resilient_execution`
        with a supervisor and re-balancer built here.
        """
        cluster = self._cluster()
        app = make_app("pagerank")
        partitioner = make_partitioner("hybrid")
        if runner == "system":
            outcome = GraphProcessingSystem(
                cluster, faults=self._schedule(), rebalance=True, seed=5
            ).run(app, graph, partitioner)
            return outcome.trace, outcome.report
        base = GraphProcessingSystem(cluster).run(app, graph, partitioner)
        supervisor = Supervisor()

        def rebalancer(superstep, factors):
            moved = partitioner.partition(
                graph,
                cluster.num_machines,
                weights=supervisor.degraded_weights(base.partition.weights),
            )
            return execute_partition(app, moved)[1], 0.0

        report = simulate_resilient_execution(
            base.trace,
            cluster,
            schedule=self._schedule(),
            supervisor=supervisor,
            rebalancer=rebalancer,
            seed=5,
        )
        return base.trace, report

    @staticmethod
    def _report_bytes(report) -> str:
        return json.dumps(
            dataclasses.asdict(report),
            sort_keys=True,
            default=lambda o: o.tolist() if hasattr(o, "tolist") else repr(o),
        )

    def test_faulted_run_byte_identical(self, graph):
        self._assert_inert(graph, "system")

    def test_tuned_supervisor_run_byte_identical(self, graph):
        self._assert_inert(graph, "supervisor")

    def _assert_inert(self, graph, runner):
        dark_trace, dark = self._run(graph, runner)

        clear_all_caches()
        observer = Observer()
        with enabled(observer):
            lit_trace, lit = self._run(graph, runner)

        names = {s.name for s in observer.spans}
        assert "resilience/price" in names
        assert "resilience/crash" in names

        assert lit_trace.canonical_json() == dark_trace.canonical_json()
        assert lit.runtime_seconds == dark.runtime_seconds
        assert lit.energy_joules == dark.energy_joules
        assert lit.recovery.replayed == dark.recovery.replayed
        # The supervisor fired, and the spliced continuation matches too.
        assert lit.rebalance is not None and dark.rebalance is not None
        fault_free = simulate_execution(dark_trace, self._cluster())
        assert np.allclose(
            lit.result["ranks"], fault_free.result["ranks"]
        )
        assert self._report_bytes(lit) == self._report_bytes(dark)

    def test_repeated_instrumented_runs_identical_spans(self, graph):
        """Spans use the simulated clock, so runs reproduce exactly."""
        a, b = Observer(), Observer()
        with enabled(a):
            self._run(graph)
        clear_all_caches()
        with enabled(b):
            self._run(graph)
        assert [s.to_jsonable() for s in a.spans] == [
            s.to_jsonable() for s in b.spans
        ]
        assert a.metrics.to_json() == b.metrics.to_json()
