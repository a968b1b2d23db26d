"""Resilience: what faults cost, and what the supervisor buys.

Not a figure of the paper — the paper assumes a fault-free cluster.
These tables quantify the resilient runtime added on top of it:

* recovery overhead vs crash count: each crash replays at most one
  checkpoint interval, so the overhead curve is monotone in the number of
  crashes and bounded by the checkpoint/restart policy;
* degradation-aware re-balancing: a mid-run 4x slowdown on one machine
  turns the proxy-weighted partition into the wrong partition; the
  supervisor detects the straggler, discounts its weight, and the spliced
  re-partitioned run beats riding out the fault on the stale partition.
"""

import pytest

from repro.apps import make_app
from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.engine.resilient import ResilientRuntime, simulate_resilient_execution
from repro.engine.runtime import GraphProcessingSystem
from repro.faults.checkpoint import CheckpointPolicy
from repro.faults.schedule import CrashFault, FaultSchedule, SlowdownFault
from repro.graph.datasets import load_dataset
from repro.partition import make_partitioner
from repro.partition.weights import uniform_weights
from repro.utils.tables import format_table

from tests.paper import emit

# Resilience scenarios re-run the priced execution many times (replays,
# rebalance splices), so they use a smaller scale than the figures.
SCALE = 0.002


def _cluster():
    return Cluster(
        [get_machine("m4.2xlarge")] * 2 + [get_machine("c4.2xlarge")] * 2,
        perf=PerformanceModel(model_scale=SCALE),
    )


@pytest.fixture(scope="module")
def overheads():
    """(crash count, recovery overhead in s) for 0, 1, 2 and 4 crashes."""
    cluster = _cluster()
    graph = load_dataset("wiki", scale=SCALE)
    base = GraphProcessingSystem(cluster).run(
        make_app("pagerank"), graph, make_partitioner("hybrid"),
        weights=uniform_weights(cluster),
    )
    ckpt = CheckpointPolicy(interval=5)
    rows = []
    for n in (0, 1, 2, 4):
        schedule = FaultSchedule(
            crashes=tuple(
                CrashFault(superstep=3 + 7 * k, machine=k % cluster.num_machines)
                for k in range(n)
            ),
            seed=17,
        )
        report = simulate_resilient_execution(
            base.trace, cluster, schedule=schedule, checkpoint=ckpt
        )
        rows.append((n, report.runtime_seconds - base.report.runtime_seconds))
    emit(
        format_table(
            headers=("crashes", "recovery overhead (ms)"),
            rows=[(n, f"{o * 1e3:.3f}") for n, o in rows],
            title="Recovery overhead vs crash count (pagerank/wiki, "
                  f"checkpoint every {ckpt.interval})",
        )
    )
    return rows


def test_no_crash_costs_nothing(overheads):
    assert overheads[0][1] == 0.0


def test_recovery_overhead_grows_with_crashes(overheads):
    for (_, lo), (_, hi) in zip(overheads, overheads[1:]):
        assert hi > lo


@pytest.fixture(scope="module")
def slowdown_reports():
    """Mid-run 4x slowdown: (ride it out, supervisor re-balance) reports."""
    cluster = _cluster()
    graph = load_dataset("wiki", scale=SCALE)
    schedule = FaultSchedule(
        slowdowns=(SlowdownFault(superstep=4, machine=0, factor=4.0,
                                 duration=None),),
        seed=5,
    )
    # No checkpoint tax: isolate the pure load-balancing effect.
    ckpt = CheckpointPolicy(interval=0, restart_seconds=0.0)
    ride, rebal = (
        ResilientRuntime(
            cluster, partitioner="hybrid", schedule=schedule,
            checkpoint=ckpt, rebalance=rebalance,
        ).run("pagerank", graph).report
        for rebalance in (False, True)
    )
    emit(
        format_table(
            headers=("strategy", "runtime (ms)", "energy (J)"),
            rows=[
                ("ride it out", f"{ride.runtime_seconds * 1e3:.3f}",
                 f"{ride.energy_joules:.2f}"),
                (
                    "supervisor re-balance "
                    f"(at superstep {rebal.rebalance.superstep})",
                    f"{rebal.runtime_seconds * 1e3:.3f}",
                    f"{rebal.energy_joules:.2f}",
                ),
            ],
            title="Mid-run 4x slowdown on machine 0 (pagerank/wiki, speedup "
                  f"{ride.runtime_seconds / rebal.runtime_seconds:.2f}x)",
        )
    )
    return ride, rebal


def test_supervisor_rebalances(slowdown_reports):
    _, rebal = slowdown_reports
    assert rebal.rebalance is not None


def test_rebalance_beats_riding_it_out(slowdown_reports):
    ride, rebal = slowdown_reports
    assert rebal.runtime_seconds < ride.runtime_seconds
    assert ride.runtime_seconds / rebal.runtime_seconds > 1.2
