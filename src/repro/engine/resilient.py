"""Fault-aware pricing and the resilient runtime.

:func:`simulate_execution` prices a trace on a cluster that never fails.
This module prices the same trace on a cluster that *does*: machines
crash and must replay from checkpoints, machines degrade and stretch
every barrier after them, the interconnect throttles.  Two layers:

* :func:`simulate_resilient_execution` — the pricing walk.  It consumes a
  :class:`~repro.faults.FaultSchedule` and charges exactly what a
  synchronous engine would pay: slowed supersteps stretch to the degraded
  straggler, a crash loses the attempt and pays backoff + restart +
  replay from the last checkpoint, checkpoints tax fault-free supersteps
  at the policy's interval.  Recovery is bounded — a crash site that
  keeps failing past the :class:`~repro.faults.RetryPolicy` budget raises
  :class:`~repro.errors.RecoveryError`.
* :class:`ResilientRuntime` — the control loop.  It runs an application
  end-to-end, watches per-superstep timings through a
  :class:`~repro.faults.Supervisor`, and on a persistent-straggler
  verdict re-partitions the graph onto degradation-discounted weights and
  migrates mid-run — the "graceful degradation" answer to the fault
  model.  Observed slowdowns are also fed back into an
  :class:`~repro.core.online.OnlineCCRMonitor` so later runs start from
  the degraded capability.

Everything is opt-in: with no faults to inject and no supervisor verdict
possible, the pricing path delegates to :func:`simulate_execution` and the
report is identical to the static simulator's, field for field.

Key modelling choices (see DESIGN.md "Fault model & resilience"):

* The *algorithm* needs no recovery — superstep values are a
  deterministic global computation, so replay reproduces them exactly;
  only time and energy are at stake.  This mirrors real synchronous
  engines, where recovery restores a consistent snapshot and re-runs the
  same deterministic supersteps.
* Re-partitioning mid-run is priced by splicing traces: superstep ``k``
  of a run on partition B has the same global state as superstep ``k`` on
  partition A, so the priced execution is A's supersteps before the
  migration and B's after it, plus a one-off migration charge.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cluster.cluster import Cluster
from repro.engine.distributed_graph import DistributedGraph
from repro.engine.report import (
    ExecutionReport,
    StepPricer,
    simulate_execution,
    trace_warnings,
)
from repro.engine.runtime import execute_partition
from repro.engine.trace import ExecutionTrace
from repro.engine.vertex_program import GraphApplication
from repro.errors import EngineError, FaultError, RecoveryError
from repro.faults.checkpoint import (
    CheckpointPolicy,
    RecoveryBill,
    RetryBudget,
    RetryPolicy,
)
from repro.faults.schedule import FaultSchedule
from repro.faults.supervisor import Supervisor
from repro.graph.digraph import DiGraph
from repro.obs import context as obs
from repro.partition.base import Partitioner, PartitionResult
from repro.utils.rng import make_rng

__all__ = [
    "FaultRecord",
    "ResilientExecutionReport",
    "ResilientOutcome",
    "ResilientRuntime",
    "simulate_resilient_execution",
]

_MB = 1e6
#: Bytes migrated per re-assigned edge (two int64 endpoints).
_EDGE_BYTES = 16.0


@dataclass(frozen=True)
class FaultRecord:
    """One entry of the priced run's event log."""

    kind: str  # "crash" | "checkpoint" | "rebalance" | "run-failed"
    superstep: int
    seconds: float
    detail: str = ""
    #: Machine slots the event concerns (crashed machines, straggler
    #: slots); empty for cluster-wide events like checkpoints.  Structured
    #: so downstream consumers (the job service's circuit breakers) never
    #: have to parse ``detail``.
    machines: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ResilientExecutionReport(ExecutionReport):
    """A priced report plus the resilience bill and event log."""

    recovery: RecoveryBill = field(default_factory=RecoveryBill)
    events: Tuple[FaultRecord, ...] = ()

    @property
    def rebalance(self) -> Optional[FaultRecord]:
        """The mid-run re-balance event, ``None`` when there was none."""
        return next((e for e in self.events if e.kind == "rebalance"), None)


#: A rebalancer maps (superstep, straggler factors) to a re-partitioned
#: continuation trace and its one-off migration cost, or None to decline.
Rebalancer = Callable[
    [int, Dict[int, float]], Optional[Tuple[ExecutionTrace, float]]
]


def simulate_resilient_execution(
    trace: ExecutionTrace,
    cluster: Cluster,
    schedule: Optional[FaultSchedule] = None,
    checkpoint: Optional[CheckpointPolicy] = None,
    retry: Optional[RetryPolicy] = None,
    threads_override: Optional[List[int]] = None,
    supervisor: Optional[Supervisor] = None,
    rebalancer: Optional[Rebalancer] = None,
    seed: Optional[int] = None,
) -> ExecutionReport:
    """Price a trace on a cluster subject to a fault schedule.

    Parameters
    ----------
    trace:
        Captured execution to price.
    cluster:
        Machines slot-aligned with the trace's partitions.
    schedule:
        The failure scenario.  ``None`` or an empty schedule delegates to
        :func:`simulate_execution` — the fault-free path is byte-identical
        to the static simulator, checkpoint tax included (none).
    checkpoint:
        Checkpoint/restart cost model (default
        :class:`~repro.faults.CheckpointPolicy`).
    retry:
        Recovery budget (default :class:`~repro.faults.RetryPolicy`).
        Exceeding it raises :class:`~repro.errors.RecoveryError`.
    supervisor:
        Optional straggler detector, fed observed per-slot compute times
        each completed superstep.
    rebalancer:
        Called once when the supervisor fires; may return a continuation
        trace (same machine count) and its migration cost.
    seed:
        RNG stream for backoff jitter; defaults to the schedule's seed.

    Returns
    -------
    ExecutionReport
        A :class:`ResilientExecutionReport` when faults were priced, the
        plain static report otherwise.
    """
    if schedule is None or schedule.is_empty:
        return simulate_execution(trace, cluster, threads_override)

    m = cluster.num_machines
    if m != trace.num_machines:
        raise EngineError(
            f"trace was captured on {trace.num_machines} partitions but the "
            f"cluster has {m} machines"
        )
    if threads_override is not None and len(threads_override) != m:
        raise EngineError("threads_override must have one entry per machine")
    schedule.validate_for(m)
    checkpoint = checkpoint if checkpoint is not None else CheckpointPolicy()
    retry = retry if retry is not None else RetryPolicy()

    price_span = obs.span(
        "resilience/price",
        app=trace.app,
        machines=m,
        supersteps=trace.num_supersteps,
        events=schedule.num_events,
    )

    pricer = StepPricer(cluster, threads_override)
    base_network = cluster.network
    budget = RetryBudget(
        retry, make_rng(seed if seed is not None else schedule.seed)
    )

    # Crash sites: (superstep, slot) -> remaining fires.
    sites: Dict[Tuple[int, int], int] = {}
    for c in schedule.crashes:
        key = (c.superstep, c.machine)
        sites[key] = sites.get(key, 0) + c.repeats

    events: List[FaultRecord] = []
    bill = RecoveryBill()
    rebalanced = False

    active_trace = trace
    last_checkpoint = 0
    #: Supersteps completed at least once; completing one below it again
    #: is replay.
    frontier = 0
    s = 0
    while s < active_trace.num_supersteps:
        step = active_trace.supersteps[s]
        bw_factor, lat_factor = schedule.network_factors(s)
        network = (
            base_network
            if bw_factor == 1.0
            else replace(
                base_network,
                bandwidth_gbs=base_network.bandwidth_gbs / bw_factor,
            )
        )
        step_busy, step_comm, step_wall = pricer.price(
            step,
            compute_factors=[schedule.compute_factor(s, i) for i in range(m)],
            network=network,
            latency_factor=lat_factor,
        )
        # A crashed attempt's work happened (and burned energy) even
        # though it is lost, so every attempt is charged.
        pricer.charge(step_busy, step_comm, step_wall)

        crashed = [
            key for key in ((s, i) for i in range(m))
            if sites.get(key, 0) > 0
        ]
        if crashed:
            # Recovery pays backoff + restart, then replays from the last
            # checkpoint.
            backoff = 0.0
            for key in crashed:
                sites[key] -= 1
                attempt = budget.restart(key)
                if budget.exhausted(attempt):
                    events.append(
                        FaultRecord(
                            kind="run-failed",
                            superstep=s,
                            seconds=0.0,
                            detail=f"machine {key[1]} exhausted "
                            f"{retry.max_retries} retries",
                            machines=(key[1],),
                        )
                    )
                    obs.event(
                        "resilience/run-failed",
                        superstep=s,
                        machine=key[1],
                        retries=retry.max_retries,
                    )
                    price_span.close()
                    raise RecoveryError(
                        f"machine {key[1]} crashed {attempt} times at "
                        f"superstep {s}; retry budget of {retry.max_retries} "
                        "exhausted"
                    )
                backoff = max(backoff, budget.pause(attempt))
            pause = backoff + checkpoint.restart_seconds
            pricer.idle(pause)
            bill.crashes += len(crashed)
            bill.replayed += s - last_checkpoint + 1
            bill.lost_seconds += step_wall
            bill.restart_seconds += checkpoint.restart_seconds
            bill.backoff_seconds += backoff
            machines = tuple(sorted(k[1] for k in crashed))
            events.append(
                FaultRecord(
                    kind="crash",
                    superstep=s,
                    seconds=pause,
                    detail=f"machines {list(machines)} lost "
                    f"superstep {s}; replay from {last_checkpoint}",
                    machines=machines,
                )
            )
            if obs.is_enabled():
                obs.counter_add("resilience.crashes", float(len(crashed)))
                obs.counter_add(
                    "resilience.replayed_supersteps",
                    float(s - last_checkpoint + 1),
                )
                obs.histogram_record("resilience.recovery_pause_seconds", pause)
                obs.event(
                    "resilience/crash",
                    superstep=s,
                    machines=list(machines),
                    replay_from=last_checkpoint,
                    pause_seconds=pause,
                )
            s = last_checkpoint
            continue

        # Superstep completed.
        if s < frontier:
            bill.replay_seconds += step_wall
        else:
            frontier = s + 1

        if supervisor is not None and not rebalanced:
            supervisor.observe(s, step_busy)
            if supervisor.triggered and rebalancer is not None:
                plan = rebalancer(s, dict(supervisor.report.factors))
                if plan is not None:
                    new_trace, cost = plan
                    if new_trace.num_machines != m:
                        raise FaultError(
                            "rebalanced trace spans "
                            f"{new_trace.num_machines} machines, cluster "
                            f"has {m}"
                        )
                    if new_trace.num_supersteps <= s:
                        raise FaultError(
                            "rebalanced trace ends before the rebalance "
                            f"superstep {s}"
                        )
                    pricer.idle(cost)
                    bill.migration_seconds += cost
                    rebalanced = True
                    active_trace = new_trace
                    # Migration materialises a fresh consistent snapshot.
                    last_checkpoint = s + 1
                    events.append(
                        FaultRecord(
                            kind="rebalance",
                            superstep=s,
                            seconds=cost,
                            detail="re-partitioned onto degradation-"
                            "discounted weights "
                            f"(stragglers {supervisor.report.slots})",
                            machines=tuple(supervisor.report.slots),
                        )
                    )
                    if obs.is_enabled():
                        obs.counter_add("resilience.rebalances", 1.0)
                        obs.gauge_set("resilience.rebalance_superstep", s)
                        obs.event(
                            "resilience/rebalance",
                            superstep=s,
                            migration_seconds=cost,
                            stragglers=list(supervisor.report.slots),
                        )

        if checkpoint.is_checkpoint_step(s) and last_checkpoint != s + 1:
            state_bytes = max(
                phase.work.working_set_mb * _MB for phase in step.phases
            )
            dt = checkpoint.checkpoint_seconds(state_bytes)
            pricer.idle(dt)
            bill.checkpoints += 1
            bill.checkpoint_seconds += dt
            last_checkpoint = s + 1
            events.append(
                FaultRecord(kind="checkpoint", superstep=s, seconds=dt)
            )
            if obs.is_enabled():
                obs.counter_add("resilience.checkpoints", 1.0)
                obs.histogram_record("resilience.checkpoint_seconds", dt)
                obs.event(
                    "resilience/checkpoint", superstep=s, seconds=dt
                )
        s += 1

    wall, energy, reports = pricer.totals()
    if obs.is_enabled():
        price_span.set(
            wall_seconds=wall,
            crashes=bill.crashes,
            checkpoints=bill.checkpoints,
            rebalanced=rebalanced,
        )
    price_span.close()

    return ResilientExecutionReport(
        app=active_trace.app,
        runtime_seconds=wall,
        energy_joules=energy,
        machines=list(reports),
        num_supersteps=active_trace.num_supersteps,
        result=dict(active_trace.result),
        warnings=trace_warnings(active_trace),
        recovery=bill,
        events=tuple(events),
    )


# --------------------------------------------------------------------- #
# Runtime
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ResilientOutcome:
    """Everything produced by one resilient end-to-end run."""

    partition: PartitionResult
    dgraph: DistributedGraph
    trace: ExecutionTrace
    report: ExecutionReport
    #: Present only when the supervisor triggered a mid-run re-balance.
    rebalanced_partition: Optional[PartitionResult] = None
    rebalanced_trace: Optional[ExecutionTrace] = None


class ResilientRuntime:
    """End-to-end graph processing that survives injected faults.

    The resilient sibling of
    :class:`~repro.engine.runtime.GraphProcessingSystem`: partition →
    execute → price under a fault schedule, with a supervisor watching the
    barrier timings.  On a persistent-straggler verdict it re-partitions
    the graph onto degradation-discounted weights, splices the
    re-balanced execution into the priced run, and (when given a monitor)
    reports the degraded capability to the online CCR store so subsequent
    runs start from the new reality.

    Parameters
    ----------
    cluster:
        Machines to run on (slot-aligned with partitions).
    estimator:
        Capability estimator for the initial weights; ``None`` = uniform
        (cheapest; pass a CCR estimator for paper-guided initial shares).
    partitioner:
        Partitioning algorithm name or instance.
    schedule:
        Fault scenario to inject; ``None``/empty prices exactly like the
        static path.
    checkpoint, retry:
        Recovery policies (defaults are sensible; see
        :mod:`repro.faults.checkpoint`).
    supervisor:
        Straggler detector; ``None`` installs a fresh default
        :class:`~repro.faults.Supervisor` per run.  Pass ``False``-y via
        ``rebalance=False`` instead to disable re-balancing.
    monitor:
        Optional :class:`~repro.core.online.OnlineCCRMonitor` that
        receives degradation reports when the supervisor fires.
    rebalance:
        Master switch for mid-run re-partitioning.
    """

    def __init__(
        self,
        cluster: Cluster,
        estimator=None,
        partitioner: Union[str, Partitioner] = "hybrid",
        schedule: Optional[FaultSchedule] = None,
        checkpoint: Optional[CheckpointPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        supervisor: Optional[Supervisor] = None,
        monitor=None,
        rebalance: bool = True,
        seed: Optional[int] = None,
    ):
        from repro.partition import make_partitioner

        self.cluster = cluster
        self.estimator = estimator
        self.partitioner = (
            partitioner
            if isinstance(partitioner, Partitioner)
            else make_partitioner(partitioner)
        )
        self.schedule = schedule
        self.checkpoint = checkpoint
        self.retry = retry
        self._supervisor_template = supervisor
        self.monitor = monitor
        self.rebalance = rebalance
        self.seed = seed

    # ------------------------------------------------------------------ #

    def _weights(self, app_name: str, graph: DiGraph) -> np.ndarray:
        if self.estimator is not None:
            return np.asarray(
                self.estimator.weights(self.cluster, app_name, graph),
                dtype=np.float64,
            )
        from repro.partition.weights import uniform_weights

        return uniform_weights(self.cluster)

    def run(
        self,
        app: Union[str, GraphApplication],
        graph: DiGraph,
        weights: Optional[np.ndarray] = None,
    ) -> ResilientOutcome:
        """Partition, execute, and price one run under the fault model."""
        from repro.apps.registry import make_app

        application = make_app(app) if isinstance(app, str) else app
        w = (
            np.asarray(weights, dtype=np.float64)
            if weights is not None
            else self._weights(application.name, graph)
        )
        partition = self.partitioner.partition(
            graph, self.cluster.num_machines, weights=w
        )
        dgraph, trace = execute_partition(application, partition)

        faulted = self.schedule is not None and not self.schedule.is_empty
        supervisor = None
        rebalancer = None
        spliced: Dict[str, object] = {}
        if faulted and self.rebalance:
            supervisor = (
                self._supervisor_template
                if self._supervisor_template is not None
                else Supervisor()
            )

            def rebalancer(superstep, factors):
                with obs.span(
                    "resilient/rebalance",
                    superstep=superstep,
                    stragglers=sorted(factors),
                ):
                    new_w = supervisor.degraded_weights(w)
                    if self.monitor is not None:
                        supervisor.apply_to_monitor(self.monitor, self.cluster)
                    new_partition = self.partitioner.partition(
                        graph, self.cluster.num_machines, weights=new_w
                    )
                    _, new_trace = execute_partition(application, new_partition)
                    cost = self._migration_seconds(partition, new_partition)
                    spliced["partition"] = new_partition
                    spliced["trace"] = new_trace
                    return new_trace, cost

        report = simulate_resilient_execution(
            trace,
            self.cluster,
            schedule=self.schedule,
            checkpoint=self.checkpoint,
            retry=self.retry,
            supervisor=supervisor,
            rebalancer=rebalancer,
            seed=self.seed,
        )
        return ResilientOutcome(
            partition=partition,
            dgraph=dgraph,
            trace=trace,
            report=report,
            rebalanced_partition=spliced.get("partition"),
            rebalanced_trace=spliced.get("trace"),
        )

    def _migration_seconds(
        self, old: PartitionResult, new: PartitionResult
    ) -> float:
        """One-off cost of moving re-assigned edges between machines.

        Every edge whose slot changed crosses the network once; the moves
        happen in parallel across machine pairs, so the charge is the
        total volume over the cluster's aggregate exchange bandwidth.
        """
        moved = int(np.count_nonzero(old.assignment != new.assignment))
        total_bytes = moved * _EDGE_BYTES
        aggregate_gbs = self.cluster.network.bandwidth_gbs * max(
            1, self.cluster.num_machines
        )
        return total_bytes / (aggregate_gbs * 1e9)
