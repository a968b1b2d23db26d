"""Differential equivalence: memoised pricing vs pricing from scratch.

A trace served from the ``trace`` cache carries a price memo, so
``simulate_execution`` prices each distinct cluster once per trace
(DESIGN.md §11).  The memo is safe only if (a) a hit
returns exactly what pricing an uncached copy of the trace returns, (b)
callers that edit a returned report cannot change the next one, (c) the
key separates every cluster setting that can change a price,
and (d) an observed run shares the memo: it walks (and records pricing
metrics) only on a miss, and prices the same bytes as a dark run.  This
module checks all four.
"""

from __future__ import annotations

import copy
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.apps.pagerank import PageRank
from repro.cluster.catalog import CATALOG, get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkModel
from repro.cluster.perfmodel import PerformanceModel, WorkProfile
from repro.engine import report as report_module
from repro.engine.report import enable_price_memo, simulate_execution
from repro.engine.resilient import simulate_resilient_execution
from repro.engine.runtime import execute_partition
from repro.engine.trace import (
    ExecutionTrace,
    PRICE_MEMO_KEY,
    MachinePhase,
    SuperstepTrace,
)
from repro.faults.schedule import FaultSchedule
from repro.federation import FederationService
from repro.kernels.cache import clear_all_caches
from repro.partition import make_partitioner
from repro.powerlaw.generator import generate_power_law_graph
from repro.service import GraphSpec, JobRequest, Workload
from repro.utils.canonical import jsonable

SPECS = sorted(CATALOG.values(), key=lambda spec: spec.name)

# ---------------------------------------------------------------------- #
# Strategies and helpers
# ---------------------------------------------------------------------- #

amounts = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


@st.composite
def phases(draw):
    return MachinePhase(
        work=WorkProfile(
            flops=draw(amounts),
            serial_flops=draw(amounts),
            streaming_bytes=draw(amounts),
            cacheable_bytes=draw(amounts),
            working_set_mb=draw(st.floats(0.0, 512.0, allow_nan=False)),
        ),
        comm_bytes=draw(amounts),
    )


@st.composite
def priced_inputs(draw):
    """A random trace and a slot-aligned cluster."""
    m = draw(st.integers(min_value=1, max_value=5))
    trace = ExecutionTrace(
        app="random",
        num_machines=m,
        result={"converged": draw(st.sampled_from((True, False, None)))},
    )
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        trace.append(
            SuperstepTrace(
                phases=draw(st.lists(phases(), min_size=m, max_size=m)),
                sync_rounds=draw(st.integers(min_value=0, max_value=3)),
            )
        )
    machines = draw(st.lists(st.sampled_from(SPECS), min_size=m, max_size=m))
    cluster = Cluster(
        machines,
        network=NetworkModel(
            bandwidth_gbs=draw(st.floats(0.1, 40.0, allow_nan=False)),
            latency_s=draw(st.floats(0.0, 1e-3, allow_nan=False)),
        ),
        perf=PerformanceModel(
            model_scale=draw(st.floats(1e-3, 1.0, allow_nan=False))
        ),
    )
    return trace, cluster


def _fields(report):
    return (
        report.app,
        report.runtime_seconds,
        report.energy_joules,
        tuple(report.machines),
        report.num_supersteps,
        json.dumps(jsonable(report.result), sort_keys=True),
        report.warnings,
    )


def _memo(trace):
    return vars(trace)[PRICE_MEMO_KEY]


def _uncached(trace):
    """A deep copy of ``trace`` without its price memo."""
    clone = copy.deepcopy(trace)
    vars(clone).pop(PRICE_MEMO_KEY, None)
    return clone


def _fixed_trace() -> ExecutionTrace:
    """Four slots with unequal work and traffic, so every knob moves."""
    trace = ExecutionTrace(app="fixed", num_machines=4)
    for step in range(3):
        trace.append(
            SuperstepTrace(
                phases=[
                    MachinePhase(
                        work=WorkProfile(
                            flops=1e8 * (slot + 1) * (step + 1),
                            serial_flops=1e6 * (slot + 1),
                            streaming_bytes=5e7 * (4 - slot),
                            cacheable_bytes=2e7 * (slot + 1),
                            working_set_mb=16.0 * (slot + 1),
                        ),
                        comm_bytes=3e7 * (4 - slot),
                    )
                    for slot in range(4)
                ]
            )
        )
    return trace


@pytest.fixture
def base_cluster() -> Cluster:
    return Cluster(
        [get_machine("m4.2xlarge")] * 2 + [get_machine("c4.2xlarge")] * 2,
        perf=PerformanceModel(model_scale=0.01),
    )


@pytest.fixture
def count_walks(monkeypatch):
    """Count real pricing walks (memo misses and unmemoised calls)."""
    calls = []
    walk = report_module._price

    def counted(trace, cluster):
        calls.append(trace.num_supersteps)
        return walk(trace, cluster)

    monkeypatch.setattr(report_module, "_price", counted)
    return calls


# ---------------------------------------------------------------------- #
# (a) A hit equals pricing an uncached copy
# ---------------------------------------------------------------------- #


class TestHitEqualsFresh:
    @given(priced_inputs())
    @settings(max_examples=80, deadline=None)
    def test_memo_hit_equals_uncached_copy(self, data):
        trace, cluster = data
        enable_price_memo(trace)
        uncached = _uncached(trace)

        miss = simulate_execution(trace, cluster)
        hit = simulate_execution(trace, cluster)
        fresh = simulate_execution(uncached, cluster)
        assert len(_memo(trace)) == 1
        assert _fields(hit) == _fields(miss) == _fields(fresh)

    def test_cached_trace_prices_once_per_cluster(self, base_cluster, count_walks):
        graph = generate_power_law_graph(num_vertices=300, alpha=2.0, seed=11)
        partition = make_partitioner("hybrid", seed=3).partition(graph, 4)
        _, trace = execute_partition(PageRank(), partition)
        reports = [simulate_execution(trace, base_cluster) for _ in range(3)]
        assert count_walks == [trace.num_supersteps]
        assert _fields(reports[0]) == _fields(reports[2])
        fresh = simulate_execution(_uncached(trace), base_cluster)
        assert _fields(fresh) == _fields(reports[2])

    def test_empty_fault_schedule_shares_the_memo(
        self, base_cluster, count_walks
    ):
        trace = _fixed_trace()
        enable_price_memo(trace)
        static = simulate_execution(trace, base_cluster)
        resilient = simulate_resilient_execution(
            trace, base_cluster, schedule=FaultSchedule()
        )
        assert len(count_walks) == 1
        assert _fields(resilient) == _fields(static)

    def test_uncached_traces_price_every_call(self, base_cluster, count_walks):
        trace = _fixed_trace()
        simulate_execution(trace, base_cluster)
        simulate_execution(trace, base_cluster)
        assert len(count_walks) == 2

    def test_app_with_array_state_gets_no_memo(self):
        graph = generate_power_law_graph(num_vertices=200, alpha=2.0, seed=5)
        partition = make_partitioner("hybrid", seed=3).partition(graph, 4)
        app = PageRank()
        app.hint = np.ones(3)
        _, trace = execute_partition(app, partition)
        assert PRICE_MEMO_KEY not in vars(trace)

    def test_append_drops_the_memo(self, base_cluster):
        trace = _fixed_trace()
        enable_price_memo(trace)
        before = simulate_execution(trace, base_cluster)
        trace.append(trace.supersteps[0])
        after = simulate_execution(trace, base_cluster)
        assert PRICE_MEMO_KEY not in vars(trace)
        assert after.num_supersteps == before.num_supersteps + 1
        assert after.runtime_seconds > before.runtime_seconds

    def test_checks_run_before_the_lookup(self, base_cluster):
        from repro.errors import EngineError

        trace = _fixed_trace()
        enable_price_memo(trace)
        simulate_execution(trace, base_cluster)
        narrow = Cluster(base_cluster.machines[:3], perf=base_cluster.perf)
        with pytest.raises(EngineError, match="partitions"):
            simulate_execution(trace, narrow)


# ---------------------------------------------------------------------- #
# (b) Editing a returned report cannot poison the memo
# ---------------------------------------------------------------------- #


class TestPoisoning:
    def test_edited_report_leaves_next_hit_unchanged(self, base_cluster):
        trace = _fixed_trace()
        trace.result["converged"] = True
        enable_price_memo(trace)
        first = simulate_execution(trace, base_cluster)
        expected = _fields(simulate_execution(trace, base_cluster))

        first.result["converged"] = False
        first.result["injected"] = 1
        first.machines.clear()
        second = simulate_execution(trace, base_cluster)
        second.machines.append(second.machines[0])
        second.machines[0] = replace(second.machines[0], busy_seconds=-1.0)

        third = simulate_execution(trace, base_cluster)
        assert _fields(third) == expected
        assert third.result is not first.result
        assert third.machines is not second.machines
        assert trace.result == {"converged": True}


# ---------------------------------------------------------------------- #
# (c) Key separation
# ---------------------------------------------------------------------- #


class TestKeySeparation:
    def _variants(self, base: Cluster):
        machines = base.machines
        return {
            "latency": Cluster(
                machines,
                network=replace(base.network, latency_s=base.network.latency_s * 3),
                perf=base.perf,
            ),
            "bandwidth": Cluster(
                machines,
                network=replace(
                    base.network, bandwidth_gbs=base.network.bandwidth_gbs / 3
                ),
                perf=base.perf,
            ),
            "model_scale": Cluster(
                machines,
                network=base.network,
                perf=PerformanceModel(model_scale=0.5),
            ),
            "slot_order": Cluster(
                tuple(reversed(machines)), network=base.network, perf=base.perf
            ),
        }

    def test_cluster_variants_never_share_an_entry(self, base_cluster):
        trace = _fixed_trace()
        enable_price_memo(trace)
        base = simulate_execution(trace, base_cluster)
        variants = self._variants(base_cluster)
        for name, cluster in variants.items():
            memoised = simulate_execution(trace, cluster)
            fresh = simulate_execution(_uncached(trace), cluster)
            assert _fields(memoised) == _fields(fresh), name
            assert _fields(memoised) != _fields(base), name
        assert len(_memo(trace)) == 1 + len(variants)
        # Re-asking the base cluster still returns its own numbers.
        assert _fields(simulate_execution(trace, base_cluster)) == _fields(base)


# ---------------------------------------------------------------------- #
# (d) Observed runs share the memo
# ---------------------------------------------------------------------- #


def _slack_samples(observer) -> int:
    return sum(
        hist.count
        for key, hist in observer.metrics.histograms.items()
        if key.startswith("pricing.straggler_slack_seconds")
    )


class TestObserverGate:
    def test_observed_pricing_of_a_memoised_trace_hits_the_memo(
        self, base_cluster, count_walks
    ):
        trace = _fixed_trace()
        enable_price_memo(trace)
        dark = simulate_execution(trace, base_cluster)
        observer = obs.Observer()
        with obs.enabled(observer):
            seen = simulate_execution(trace, base_cluster)
        # The hit neither walks nor records pricing metrics.
        assert len(count_walks) == 1
        assert _fields(seen) == _fields(dark)
        assert _slack_samples(observer) == 0

        # A miss under the observer walks once and records every step.
        fresh = _fixed_trace()
        enable_price_memo(fresh)
        observer = obs.Observer()
        with obs.enabled(observer):
            missed = simulate_execution(fresh, base_cluster)
            again = simulate_execution(fresh, base_cluster)
        assert len(count_walks) == 2
        assert _fields(missed) == _fields(again) == _fields(dark)
        assert _slack_samples(observer) == fresh.num_supersteps
        assert "pricing.runtime_seconds{app=fixed}" in observer.metrics.gauges

    def test_observed_service_replay_equals_dark_replay(self, count_walks):
        workload = Workload(
            jobs=tuple(
                JobRequest(
                    job_id=f"j{i}",
                    app=("pagerank", "connected_components")[i % 2],
                    submit_s=10.0 * i,
                    graph=GraphSpec(vertices=300, alpha=2.1, seed=0),
                )
                for i in range(6)
            ),
            seed=0,
        )
        cluster = Cluster(
            [get_machine("m4.2xlarge"), get_machine("c4.2xlarge")],
            perf=PerformanceModel(model_scale=0.01),
        )
        dark = FederationService([cluster]).run_workload(workload).trace_json()
        # The dark replay priced repeat (trace, cluster) pairs from memo.
        dark_walks = list(count_walks)

        clear_all_caches()
        observer = obs.Observer()
        with obs.enabled(observer):
            observed = FederationService(
                [cluster]
            ).run_workload(workload).trace_json()
        assert observed == dark
        # The observed replay walked exactly what the dark one walked,
        # and sampled every superstep of every walk.
        assert count_walks[len(dark_walks):] == dark_walks
        assert _slack_samples(observer) == sum(dark_walks)
