"""Fault-aware pricing.

:func:`simulate_execution` prices a trace on a cluster that never fails.
This module prices the same trace on a cluster that *does*: machines
crash and must replay from checkpoints, machines degrade and stretch
every barrier after them, the interconnect throttles.

:func:`simulate_resilient_execution` consumes a
:class:`~repro.faults.FaultSchedule` and charges exactly what a
synchronous engine would pay: slowed supersteps stretch to the degraded
straggler, a crash loses the attempt and pays backoff + restart + replay
from the last checkpoint, checkpoints tax fault-free supersteps at the
policy's interval.  Recovery is bounded — a crash site that keeps
failing past the :class:`~repro.faults.RetryPolicy` budget raises
:class:`~repro.errors.RecoveryError`.  An optional
:class:`~repro.faults.Supervisor` watches the per-superstep timings; on
a persistent-straggler verdict an optional rebalancer supplies a
re-partitioned continuation trace, which the walk splices in.
:class:`~repro.engine.runtime.GraphProcessingSystem` builds both from
its recovery settings, so every static run prices through this walk.

With no faults to inject the walk delegates to :func:`simulate_execution`
and the report is the static simulator's, field for field.

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
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.engine.report import (
    ExecutionReport,
    StepPricer,
    simulate_execution,
    trace_warnings,
)
from repro.engine.trace import ExecutionTrace
from repro.errors import EngineError, FaultError, RecoveryError
from repro.faults.checkpoint import (
    CheckpointPolicy,
    RecoveryBill,
    RetryBudget,
    RetryPolicy,
)
from repro.faults.schedule import FaultSchedule
from repro.faults.supervisor import Supervisor
from repro.obs import context as obs
from repro.utils.rng import make_rng

__all__ = [
    "FaultRecord",
    "ResilientExecutionReport",
    "simulate_resilient_execution",
]

_MB = 1e6


@dataclass(frozen=True)
class FaultRecord:
    """One entry of the priced run's event log."""

    kind: str  # "crash" | "checkpoint" | "rebalance"
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
        the first time each superstep completes (replays are not fed
        again).
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
        return simulate_execution(trace, cluster)

    m = cluster.num_machines
    if m != trace.num_machines:
        raise EngineError(
            f"trace was captured on {trace.num_machines} partitions but the "
            f"cluster has {m} machines"
        )
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

    pricer = StepPricer(cluster)
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

        # Superstep completed.  A replay repeats timings the supervisor
        # has already seen, so only a first completion feeds it.
        first = s >= frontier
        if first:
            frontier = s + 1
        else:
            bill.replay_seconds += step_wall

        if first and supervisor is not None and not rebalanced:
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
