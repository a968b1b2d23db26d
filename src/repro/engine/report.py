"""Pricing execution traces on clusters: runtime, energy, utilisation.

This is the barrier model of a synchronous distributed graph framework:
within a superstep every machine computes on its partition and exchanges
mirror updates; the superstep ends when the *slowest* machine finishes.
Imbalance therefore costs twice — wall-clock time stretches to the
straggler, and every other machine burns idle power waiting at the
barrier.  Both effects are integrated here, per machine and per superstep,
exactly the quantities Figs. 9 and 10 compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkModel
from repro.cluster.power import EnergyCounter
from repro.engine.trace import PRICE_MEMO_KEY, ExecutionTrace, SuperstepTrace
from repro.errors import EngineError
from repro.kernels.cache import cluster_key
from repro.obs import context as obs

__all__ = [
    "MachineReport",
    "ExecutionReport",
    "StepPricer",
    "enable_price_memo",
    "simulate_execution",
    "trace_warnings",
]


@dataclass(frozen=True)
class MachineReport:
    """Per-machine totals over an execution."""

    machine: str
    busy_seconds: float
    comm_seconds: float
    wall_seconds: float
    energy_joules: float

    @property
    def utilization(self) -> float:
        """Fraction of wall-clock time spent computing or communicating.

        Communication overlaps computation, so the sum is capped at the
        wall time: a machine saturating both pipes reads 1.0.
        """
        if self.wall_seconds == 0:
            return 0.0
        return min(
            1.0, (self.busy_seconds + self.comm_seconds) / self.wall_seconds
        )


@dataclass(frozen=True)
class ExecutionReport:
    """Priced execution: the simulated equivalent of the paper's runs."""

    app: str
    runtime_seconds: float
    energy_joules: float
    machines: List[MachineReport]
    num_supersteps: int
    result: Dict[str, Any] = field(default_factory=dict)
    #: Non-fatal anomalies observed while pricing (e.g. the application hit
    #: its superstep budget without converging).  Empty on clean runs.
    warnings: Tuple[str, ...] = ()

    @property
    def straggler(self) -> str:
        """Name of the machine with the most busy time (the load magnet)."""
        return max(self.machines, key=lambda m: m.busy_seconds).machine

    def cost_usd(self, cluster: Cluster) -> float:
        """Dollar cost of the run at the cluster's hourly rate."""
        return cluster.hourly_cost() * self.runtime_seconds / 3600.0


#: Priced entries one trace keeps; the oldest is dropped first.
_PRICE_MEMO_SIZE = 32

#: What a memo entry holds: runtime, energy and per-machine reports.
_Priced = Tuple[float, float, Tuple[MachineReport, ...]]


def enable_price_memo(trace: ExecutionTrace) -> None:
    """Give a shared trace a table of its priced results.

    :func:`repro.engine.runtime.execute_partition` calls this as a trace
    enters the ``trace`` cache, so the table is evicted with the trace.
    :func:`simulate_execution` then prices each distinct cluster once
    per trace.  Traces without the table —
    built by hand, by an app that runs uncached, or appended to since
    (:meth:`ExecutionTrace.append` drops the table) — price from scratch
    on every call.
    """
    trace.__dict__[PRICE_MEMO_KEY] = {}


def simulate_execution(
    trace: ExecutionTrace,
    cluster: Cluster,
) -> ExecutionReport:
    """Price a machine-agnostic trace on a concrete cluster.

    Parameters
    ----------
    trace:
        Captured execution (see :mod:`repro.engine.trace`).
    cluster:
        Machines slot-aligned with the trace's partitions.

    Returns
    -------
    ExecutionReport
        Wall-clock runtime (sum of barrier-bound supersteps), total energy
        and per-machine breakdowns.  A trace from the ``trace`` cache
        serves repeat prices from its memo (see :func:`enable_price_memo`);
        every call returns a fresh report, so editing one never changes
        the next.
    """
    if cluster.num_machines != trace.num_machines:
        raise EngineError(
            f"trace was captured on {trace.num_machines} partitions but the "
            f"cluster has {cluster.num_machines} machines"
        )

    memo = trace.__dict__.get(PRICE_MEMO_KEY)
    if memo is None:
        priced = _price(trace, cluster)
    else:
        key = cluster_key(cluster)
        priced = memo.get(key)
        if priced is None:
            priced = _price(trace, cluster)
            if len(memo) >= _PRICE_MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[key] = priced
    wall, energy, machines = priced
    return ExecutionReport(
        app=trace.app,
        runtime_seconds=wall,
        energy_joules=energy,
        machines=list(machines),
        num_supersteps=trace.num_supersteps,
        result=dict(trace.result),
        warnings=trace_warnings(trace),
    )


class StepPricer:
    """The barrier model, one superstep at a time, with running totals.

    :func:`simulate_execution` walks every superstep through it once;
    the fault-aware walk (:func:`~repro.engine.resilient.
    simulate_resilient_execution`) walks supersteps again after a crash,
    stretches them by a fault schedule's compute and network factors, and
    adds idle windows for recovery.  Both price a superstep the same way:
    the default factors are exactly 1.0, and multiplying by 1.0 leaves
    every float unchanged.
    """

    def __init__(self, cluster: Cluster):
        m = cluster.num_machines
        self.cluster = cluster
        self.busy = np.zeros(m)
        self.comm = np.zeros(m)
        self.wall = 0.0
        self.counter = EnergyCounter()

    def price(
        self,
        step: SuperstepTrace,
        compute_factors: Optional[List[float]] = None,
        network: Optional[NetworkModel] = None,
        latency_factor: float = 1.0,
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """One superstep's per-slot busy and comm seconds and its wall."""
        cluster = self.cluster
        m = cluster.num_machines
        network = cluster.network if network is None else network
        latency_scale = cluster.perf.model_scale * latency_factor
        # A single machine holds the whole graph: no mirrors, no barrier
        # traffic (PowerGraph on one node skips the network entirely).
        networked = m > 1
        step_busy = np.empty(m)
        step_comm = np.empty(m)
        for i, phase in enumerate(step.phases):
            step_busy[i] = cluster.perf.execution_time(
                cluster.machines[i], phase.work
            ) * (1.0 if compute_factors is None else compute_factors[i])
            step_comm[i] = (
                network.transfer_time(
                    phase.comm_bytes,
                    rounds=step.sync_rounds,
                    latency_scale=latency_scale,
                )
                if networked
                else 0.0
            )
        # PowerGraph overlaps mirror synchronisation with gather/apply
        # computation; a machine stalls on the network only when its
        # communication exceeds its computation.
        step_wall = float(np.max(np.maximum(step_busy, step_comm)))
        return step_busy, step_comm, step_wall

    def charge(
        self, step_busy: np.ndarray, step_comm: np.ndarray, step_wall: float
    ) -> None:
        """Add one priced superstep to the totals and its energy."""
        self.wall += step_wall
        self.busy += step_busy
        self.comm += step_comm
        for i, spec in enumerate(self.cluster.machines):
            self.counter.record(
                spec,
                float(step_busy[i]),
                step_wall,
                threads=spec.compute_threads,
                slot=i,
            )

    def idle(self, seconds: float) -> None:
        """Every machine idles at a barrier for a recovery window."""
        if seconds <= 0.0:
            return
        self.wall += seconds
        for i, spec in enumerate(self.cluster.machines):
            self.counter.record(spec, 0.0, seconds, threads=0, slot=i)

    def totals(self) -> _Priced:
        """Runtime, energy and per-machine reports of everything charged."""
        # Every sample carries its cluster slot, so per-slot totals do not
        # depend on how many samples a superstep happened to record
        # (recovery replays and checkpoint windows break any fixed
        # samples-per-step ordering invariant).
        slot_energy = np.zeros(self.cluster.num_machines)
        for sample in self.counter.samples:
            slot_energy[sample.slot] += sample.joules
        reports = tuple(
            MachineReport(
                machine=spec.name,
                busy_seconds=float(self.busy[i]),
                comm_seconds=float(self.comm[i]),
                wall_seconds=self.wall,
                energy_joules=float(slot_energy[i]),
            )
            for i, spec in enumerate(self.cluster.machines)
        )
        return self.wall, float(self.counter.total_joules), reports


def _price(trace: ExecutionTrace, cluster: Cluster) -> _Priced:
    """The barrier-model walk over every superstep and machine."""
    pricer = StepPricer(cluster)
    for step in trace.supersteps:
        step_busy, step_comm, step_wall = pricer.price(step)
        if obs.is_enabled():
            # Barrier slack: how long the fastest machine idles waiting
            # for the straggler (the paper's imbalance cost, Figs. 9-10).
            finish = np.maximum(step_busy, step_comm)
            obs.histogram_record(
                "pricing.straggler_slack_seconds",
                step_wall - float(finish.min()),
                app=trace.app,
            )
        pricer.charge(step_busy, step_comm, step_wall)
    priced = pricer.totals()
    if obs.is_enabled():
        obs.gauge_set("pricing.runtime_seconds", priced[0], app=trace.app)
        obs.gauge_set("pricing.energy_joules", priced[1], app=trace.app)
    return priced


def trace_warnings(trace: ExecutionTrace) -> Tuple[str, ...]:
    """Anomalies a priced report should surface (currently: convergence)."""
    if trace.result.get("converged") is False:
        return (
            f"{trace.app} did not converge: superstep budget exhausted "
            f"after {trace.num_supersteps} supersteps",
        )
    return ()
