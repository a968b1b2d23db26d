"""The deterministic multi-tenant job service.

One simulated cluster, one stream of job requests, one server: jobs are
admitted (or rejected) the instant they arrive, wait in a priority queue
while the cluster is busy, and run one at a time through a
:class:`~repro.engine.runtime.GraphProcessingSystem` carrying the job's
fault schedule for that attempt.  Everything happens on
the *simulated* clock — arrival gaps, queueing delay, priced runtimes,
retry backoffs and breaker cooldowns all add in the same unit — so a
workload file plus a seed pins the entire service history byte for byte.

The control policies, in the order a job meets them:

* **Admission / backpressure** — a bounded queue.  A job arriving to a
  full queue, or whose projected wait exceeds the policy bound, is
  rejected immediately with a typed reason; an open-loop arrival process
  cannot wedge the service.
* **Deadlines** — each job may carry a relative deadline.  If the
  CCR-priced projection says even the optimistic finish misses it, the
  job is cancelled before consuming cluster time; if the actual priced
  run overruns it, the job is cancelled *at* the deadline and charged
  exactly the simulated time and energy consumed up to it.
* **Retries** — a run that exhausts the engine's recovery budget
  (:class:`~repro.errors.RecoveryError`) is retried at service level with
  exponential backoff and full jitter, under a fresh per-attempt fault
  draw (seeded, so the retry sequence is still reproducible).
* **Circuit breakers** — every machine slot carries a breaker fed by the
  runtime's crash/straggler events.  Broken machines keep only a sliver
  of the partition weight until a cooled-down probe succeeds
  (see :mod:`repro.service.breaker`).
* **Load shedding** — when the backlog crosses the shedding threshold,
  low-priority jobs run with a reduced iteration budget and their report
  is flagged ``degraded`` (the graded-brownout alternative to rejecting
  them outright).

Accounting invariant (checked by the chaos tests): every submitted job
ends in exactly one typed outcome, and the service totals equal the sums
over per-job records.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.cluster.cluster import Cluster
from repro.engine.resilient import ResilientExecutionReport
from repro.engine.runtime import GraphProcessingSystem
from repro.errors import FaultError, RecoveryError, ServiceError, StreamError
from repro.faults.checkpoint import CheckpointPolicy, RetryBudget, RetryPolicy
from repro.graph.digraph import DiGraph
from repro.obs import context as obs
from repro.partition import make_partitioner
from repro.partition.weights import uniform_weights
from repro.service.breaker import BreakerBoard, BreakerEvent, BreakerPolicy
from repro.service.estimate import projected_seconds
from repro.service.request import (
    STATUS_COMPLETED,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_FAILED,
    STATUS_REJECTED,
    JobRecord,
    JobRequest,
    Workload,
)
from repro.utils.rng import make_rng

if TYPE_CHECKING:
    from repro.streaming.recovery import CheckpointCustody

__all__ = ["ServicePolicy", "ServiceResult", "JobService"]


def _stream_job_seed(base_seed: int, job_id: str) -> int:
    """Deterministic backoff seed for one streaming job's recovery RNG."""
    digest = hashlib.sha256(job_id.encode("utf-8")).digest()
    return base_seed * 1000003 + int.from_bytes(digest[:4], "big")


def _locate_reason(reason: str, job_index: Optional[int]) -> str:
    """Prefix per-job *validation* rejections with their workload location.

    Validation reasons (``invalid fault schedule``, ``invalid mutation
    stream``) point at a defect in the workload file, so they carry the
    same ``jobs[i]`` locator :meth:`Workload.from_json` uses.  Capacity
    reasons (queue full, projected wait) describe service state, not the
    record, and stay unlocated.
    """
    if job_index is not None and reason.startswith("invalid "):
        return f"jobs[{job_index}]: {reason}"
    return reason

#: Backoff shape between service-level attempts.
_ATTEMPT_BACKOFF = RetryPolicy(
    backoff_base_s=0.002, backoff_factor=2.0, full_jitter=True
)

#: Iteration knob per application, for degraded (shed) runs.  Apps absent
#: here have no budget to cut, so shedding leaves them whole.
_ITER_KNOBS: Dict[str, Tuple[str, int]] = {
    "pagerank": ("max_supersteps", 100),
    "coloring": ("max_rounds", 500),
}


@dataclass(frozen=True)
class ServicePolicy:
    """Admission, shedding and retry knobs of one service instance.

    Attributes
    ----------
    max_queue_depth:
        Jobs allowed to wait (excluding the one running); an arrival to a
        full queue is rejected.
    max_projected_wait_s:
        Optional bound on the projected queueing delay at admission:
        remaining time of the running job plus the CCR-projected runtimes
        of everything queued ahead.  ``None`` disables the check.
    shed_queue_depth:
        Backlog (queue length at job start) at which shedding kicks in.
    shed_priority_max:
        Jobs with ``priority <= shed_priority_max`` are sheddable.
    shed_iteration_cap:
        Iteration budget a shed job runs under (applies to apps with an
        iteration knob; see ``_ITER_KNOBS``).
    max_attempts:
        Service-level run attempts per job (1 = no retry); :attr:`retry`
        turns it into the job's retry budget.
    """

    max_queue_depth: int = 8
    max_projected_wait_s: Optional[float] = None
    shed_queue_depth: int = 6
    shed_priority_max: int = 0
    shed_iteration_cap: int = 10
    max_attempts: int = 2

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ServiceError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if (
            self.max_projected_wait_s is not None
            and self.max_projected_wait_s <= 0.0
        ):
            raise ServiceError(
                f"max_projected_wait_s must be > 0, got "
                f"{self.max_projected_wait_s}"
            )
        if self.shed_queue_depth < 1:
            raise ServiceError(
                f"shed_queue_depth must be >= 1, got {self.shed_queue_depth}"
            )
        if self.shed_iteration_cap < 1:
            raise ServiceError(
                f"shed_iteration_cap must be >= 1, got "
                f"{self.shed_iteration_cap}"
            )
        if self.max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    @cached_property
    def retry(self) -> RetryPolicy:
        """The attempt budget: ``max_attempts - 1`` restarts per job.

        Pauses between attempts use full jitter, which decorrelates
        retry storms across tenants.
        """
        return replace(_ATTEMPT_BACKOFF, max_retries=self.max_attempts - 1)


@dataclass(frozen=True)
class ServiceResult:
    """Everything one workload replay produced, in deterministic order."""

    records: Tuple[JobRecord, ...]
    breaker_events: Tuple[BreakerEvent, ...]
    breaker_states: Tuple[str, ...]
    breaker_trips: int
    makespan_s: float
    max_queue_depth: int

    def by_status(self) -> Dict[str, int]:
        counts = {
            STATUS_COMPLETED: 0,
            STATUS_REJECTED: 0,
            STATUS_DEADLINE_EXCEEDED: 0,
            STATUS_FAILED: 0,
        }
        for r in self.records:
            counts[r.status] += 1
        return counts

    def summary(self) -> Dict[str, Any]:
        """Deterministic service-level metrics (the ops dashboard view)."""
        counts = self.by_status()
        submitted = len(self.records)
        waits = sorted(
            r.wait_s for r in self.records if r.wait_s is not None
        )
        latencies = sorted(
            r.latency_s
            for r in self.records
            if r.status == STATUS_COMPLETED and r.latency_s is not None
        )
        charged_s = sum(r.charged_seconds for r in self.records)
        charged_j = sum(r.charged_energy_joules for r in self.records)
        backoff_s = sum(r.retries_backoff_s for r in self.records)
        hours = self.makespan_s / 3600.0
        return {
            "jobs_submitted": submitted,
            "jobs_completed": counts[STATUS_COMPLETED],
            "jobs_rejected": counts[STATUS_REJECTED],
            "jobs_deadline_exceeded": counts[STATUS_DEADLINE_EXCEEDED],
            "jobs_failed": counts[STATUS_FAILED],
            "jobs_degraded": sum(1 for r in self.records if r.degraded),
            "rejection_rate": (
                counts[STATUS_REJECTED] / submitted if submitted else 0.0
            ),
            "max_queue_depth": self.max_queue_depth,
            "wait_p50_s": _percentile(waits, 50.0),
            "wait_p99_s": _percentile(waits, 99.0),
            "latency_p50_s": _percentile(latencies, 50.0),
            "latency_p99_s": _percentile(latencies, 99.0),
            "makespan_s": self.makespan_s,
            "throughput_jobs_per_sim_hour": (
                counts[STATUS_COMPLETED] / hours if hours > 0.0 else 0.0
            ),
            "charged_seconds_total": charged_s,
            "charged_energy_joules_total": charged_j,
            "retry_backoff_seconds_total": backoff_s,
            "breaker_trips": self.breaker_trips,
            "breaker_states": list(self.breaker_states),
        }

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "records": [r.to_jsonable() for r in self.records],
            "breaker_events": [e.to_jsonable() for e in self.breaker_events],
            "summary": self.summary(),
        }

    def trace_json(self) -> str:
        """Canonical byte-reproducible trace of the whole replay."""
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return float(np.percentile(np.asarray(sorted_values, dtype=np.float64), q))


def _record(
    job: JobRequest, status: str, start_s: float, **fields: Any
) -> JobRecord:
    """One job's record; ``fields`` are the facts its outcome sets."""
    return JobRecord(
        job_id=job.job_id,
        app=job.app,
        status=status,
        priority=job.priority,
        submit_s=job.submit_s,
        start_s=start_s,
        **fields,
    )


def _settle(
    job: JobRequest,
    start_s: float,
    run_start_s: float,
    seconds: float,
    energy: float,
    deadline: Optional[float],
    what: str,
    **fields: Any,
) -> JobRecord:
    """The record of a priced run of ``seconds`` from ``run_start_s``.

    A run that finishes by its deadline completes and is charged in
    full.  One that overruns it is cancelled *at* the deadline and
    charged exactly the simulated share consumed up to it, energy pro
    rata; ``what`` names the run in the reason.
    """
    finish = run_start_s + seconds
    if deadline is not None and finish > deadline:
        run_share = max(0.0, deadline - run_start_s)
        fraction = run_share / seconds if seconds > 0.0 else 0.0
        return _record(
            job,
            STATUS_DEADLINE_EXCEEDED,
            start_s,
            end_s=deadline,
            charged_seconds=run_share,
            charged_energy_joules=energy * fraction,
            reason=(
                f"{what} overran deadline: finish {finish:.6f}s > "
                f"deadline {deadline:.6f}s"
            ),
            **fields,
        )
    return _record(
        job,
        STATUS_COMPLETED,
        start_s,
        end_s=finish,
        charged_seconds=seconds,
        charged_energy_joules=energy,
        **fields,
    )


class JobService:
    """Replays a workload against one cluster under the service policies.

    Parameters
    ----------
    cluster:
        The heterogeneous cluster all jobs run on.
    policy:
        Admission/shedding/retry knobs (default :class:`ServicePolicy`).
    breaker_policy:
        Per-machine breaker knobs (default :class:`BreakerPolicy`).
    estimator:
        Optional capability estimator for base partition weights
        (``None`` = uniform; breakers multiply on top either way).
    checkpoint, engine_retry:
        Recovery policies of each attempt's
        :class:`~repro.engine.runtime.GraphProcessingSystem`.
    stream_checkpoint:
        Snapshot cadence for *streaming* jobs (epochs between durable
        stream checkpoints).  ``None`` falls back to ``checkpoint`` —
        one policy for both granularities — but the two usually differ:
        static runs checkpoint every N supersteps, streams every N
        mutation batches.
    monitor:
        Optional :class:`~repro.core.online.OnlineCCRMonitor` receiving
        degradation reports when a run's supervisor fires.
    stream_halo:
        Boundary-expansion radius of the incremental partitioner used for
        jobs carrying a graph mutation stream.
    checkpoints:
        Optional shared :class:`~repro.streaming.recovery.
        CheckpointCustody`.  When given, streaming jobs checkpoint through
        it and — if custody already holds a durable snapshot for the job
        id (a federation failover) — resume mid-stream instead of
        restarting from scratch.
    """

    def __init__(
        self,
        cluster: Cluster,
        policy: Optional[ServicePolicy] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        estimator: Optional[Any] = None,
        checkpoint: Optional[CheckpointPolicy] = None,
        engine_retry: Optional[RetryPolicy] = None,
        monitor: Optional[Any] = None,
        stream_halo: int = 1,
        checkpoints: Optional["CheckpointCustody"] = None,
        stream_checkpoint: Optional[CheckpointPolicy] = None,
    ):
        self.cluster = cluster
        self.policy = policy if policy is not None else ServicePolicy()
        self.board = BreakerBoard(
            cluster.num_machines,
            breaker_policy if breaker_policy is not None else BreakerPolicy(),
        )
        self.estimator = estimator
        self.checkpoint = checkpoint
        self.engine_retry = engine_retry
        self.monitor = monitor
        self.stream_halo = int(stream_halo)
        self.checkpoints = checkpoints
        self.stream_checkpoint = (
            stream_checkpoint if stream_checkpoint is not None else checkpoint
        )
        #: job_id -> canonical streaming trace JSON of the last completed
        #: run (the byte-identity proof artifact for recovery tests).
        self.stream_traces: Dict[str, str] = {}
        #: job_id -> batch cursor the last run resumed from (consumed by
        #: the federation to journal ``resumed:<cursor>`` entries).
        self.stream_resumes: Dict[str, int] = {}
        self._graphs: Dict[Tuple[Any, ...], DiGraph] = {}
        self._projections: Dict[Tuple[Any, ...], float] = {}
        self._rng = make_rng(0)
        self._stream_seed = 0

    # ------------------------------------------------------------------ #
    # Shared inputs
    # ------------------------------------------------------------------ #

    def _graph_for(self, job: JobRequest) -> DiGraph:
        key = job.graph.key()
        graph = self._graphs.get(key)
        if graph is None:
            graph = job.graph.load()
            self._graphs[key] = graph
        return graph

    def _projection_for(self, job: JobRequest) -> float:
        """CCR-projected solo runtime, memoised per (app, graph) pair.

        The service memo makes admission O(1) per queued job without
        re-deriving the estimate cache's content key (graph fingerprint
        and cluster key); the value is a deterministic function of the
        key either way.
        """
        key = (job.app, job.graph.key())
        cached = self._projections.get(key)
        if cached is not None:
            return cached
        seconds = projected_seconds(
            self.cluster, job.app, self._graph_for(job)
        )
        self._projections[key] = seconds
        return seconds

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def _admission_error(
        self, job: JobRequest, queue: List[JobRequest], free_at: float
    ) -> str:
        """Reason to reject ``job`` at its arrival instant, or ``""``."""
        if job.faults is not None:
            try:
                job.faults.validate_for(self.cluster.num_machines)
            except FaultError as exc:
                return f"invalid fault schedule: {exc}"
        if job.graph.mutations is not None:
            # Synthetic specs validate at construction; dataset specs can
            # only be checked against the materialised graph, here.
            try:
                job.graph.mutations.validate_for(
                    self._graph_for(job).num_vertices
                )
            except StreamError as exc:
                return f"invalid mutation stream: {exc}"
        if len(queue) >= self.policy.max_queue_depth:
            return (
                f"queue full: depth {len(queue)} at limit "
                f"{self.policy.max_queue_depth}"
            )
        bound = self.policy.max_projected_wait_s
        if bound is not None:
            wait = max(0.0, free_at - job.submit_s)
            for queued in queue:
                wait += self._projection_for(queued)
            if wait > bound:
                return (
                    f"projected wait {wait:.6f}s exceeds bound {bound:.6f}s"
                )
        return ""

    # ------------------------------------------------------------------ #
    # One job
    # ------------------------------------------------------------------ #

    def _build_app(self, job: JobRequest, shed: bool) -> Tuple[Any, bool]:
        from repro.apps.registry import make_app

        kwargs = {str(k): v for k, v in sorted(job.app_args.items())}
        degraded = False
        if shed and job.app in _ITER_KNOBS:
            knob, default = _ITER_KNOBS[job.app]
            current = int(kwargs.get(knob, default))
            cap = self.policy.shed_iteration_cap
            if cap < current:
                kwargs[knob] = cap
                degraded = True
        return make_app(job.app, **kwargs), degraded

    def _feed_breakers(
        self,
        report: Any,
        schedule_machines: Tuple[int, ...],
        failed_run: bool,
        now_s: float,
    ) -> Tuple[int, bool]:
        """Turn one attempt's evidence into breaker transitions.

        Returns ``(crash_event_count, rebalanced)`` for the job record.
        """
        crashes = 0
        rebalanced = False
        failed: set[int] = set()
        if isinstance(report, ResilientExecutionReport):
            for ev in report.events:
                if ev.kind == "crash":
                    failed.update(ev.machines)
                    crashes += len(ev.machines)
                elif ev.kind == "rebalance":
                    failed.update(ev.machines)
            rebalanced = report.rebalance is not None
            self.board.record_failures(
                tuple(sorted(failed)), now_s, "crash/straggler events"
            )
        elif failed_run:
            # The pricing walk aborted without a report; the schedule's
            # crash targets are the best available evidence.
            failed.update(schedule_machines)
            self.board.record_failures(
                tuple(sorted(failed)), now_s, "run failed"
            )
        healthy = tuple(
            i for i in range(self.cluster.num_machines) if i not in failed
        )
        self.board.record_successes(healthy, now_s)
        return crashes, rebalanced

    def _run_job(
        self, job: JobRequest, start_s: float, backlog: int
    ) -> JobRecord:
        """Execute one admitted job starting at ``start_s``."""
        deadline = job.absolute_deadline_s
        graph = self._graph_for(job)
        projected = self._projection_for(job)

        with obs.span(
            "service/job", job_id=job.job_id, app=job.app,
            priority=job.priority,
        ) as span:
            # Pre-run deadline check: the projection is an optimistic
            # lower bound, so a projected miss is a certain miss.
            if deadline is not None and start_s + projected > deadline:
                span.set(status=STATUS_DEADLINE_EXCEEDED)
                if obs.is_enabled():
                    obs.counter_add("service.deadline_exceeded", 1.0)
                return _record(
                    job,
                    STATUS_DEADLINE_EXCEEDED,
                    start_s,
                    end_s=start_s,
                    reason=(
                        f"projected finish {start_s + projected:.6f}s "
                        f"exceeds deadline {deadline:.6f}s"
                    ),
                )

            shed = (
                backlog >= self.policy.shed_queue_depth
                and job.priority <= self.policy.shed_priority_max
            )
            application, degraded = self._build_app(job, shed)
            if degraded and obs.is_enabled():
                obs.counter_add("service.shed", 1.0)

            self.board.refresh(start_s)
            weights = (
                np.asarray(
                    self.estimator.weights(self.cluster, job.app, graph),
                    dtype=np.float64,
                )
                if self.estimator is not None
                else uniform_weights(self.cluster)
            )
            weights = weights * self.board.multipliers()

            if job.graph.mutations is not None:
                record = self._run_streaming_job(
                    job, graph, application, weights, start_s, deadline,
                    degraded,
                )
            else:
                record = self._attempt_loop(
                    job, graph, application, weights, start_s, deadline,
                    degraded,
                )
            span.set(status=record.status, attempts=record.attempts)
            if obs.is_enabled():
                obs.counter_add(f"service.{record.status}", 1.0)
                if record.wait_s is not None:
                    obs.histogram_record("service.wait_seconds", record.wait_s)
                if record.latency_s is not None:
                    obs.histogram_record(
                        "service.latency_seconds", record.latency_s
                    )
            return record

    def _run_streaming_job(
        self,
        job: JobRequest,
        graph: DiGraph,
        application: Any,
        weights: NDArray[np.float64],
        start_s: float,
        deadline: Optional[float],
        degraded: bool,
    ) -> JobRecord:
        """Price one mutation-stream job: epochs of compute plus repairs.

        The stream runs through the one epoch loop of
        :class:`~repro.streaming.runner.StreamingSystem`.  With
        crash faults attached (format v4) or a checkpoint custody wired
        in, its recovery is on: the trace stays byte-identical to an
        undisturbed run, and the recovery bill (lost work, replay,
        restarts, backoff, snapshot costs) is charged *on top of* the
        productive runtime.  Otherwise it takes no snapshots and the bill
        is empty.  If custody already holds a durable snapshot for this
        job id — a federation failover — the run resumes mid-stream from
        the last checkpoint.  Crashes recovered inside the stream never
        feed the breaker board: epoch recovery is sub-attempt
        granularity, and blaming machine slots for it would perturb later
        jobs' weights.
        """
        from repro.streaming.runner import StreamingSystem

        assert job.graph.mutations is not None
        checkpoint = None
        if job.faults is not None or self.checkpoints is not None:
            checkpoint = self.stream_checkpoint or CheckpointPolicy()
        system = StreamingSystem(
            self.cluster,
            halo=self.stream_halo,
            faults=job.faults,
            checkpoint=checkpoint,
            retry=self.engine_retry,
            seed=_stream_job_seed(self._stream_seed, job.job_id),
            custody=self.checkpoints,
            job_id=job.job_id,
        )
        try:
            outcome = system.run_resilient(
                application,
                graph,
                job.graph.mutations,
                make_partitioner(job.partitioner),
                weights=weights,
            )
        except RecoveryError as exc:
            if obs.is_enabled():
                obs.counter_add("service.stream_failures", 1.0)
            return _record(
                job,
                STATUS_FAILED,
                start_s,
                end_s=start_s,
                attempts=1,
                degraded=degraded,
                reason=f"stream recovery exhausted: {exc}",
            )
        result, bill = outcome.result, outcome.recovery
        if bill.resumed_from_batch is not None:
            self.stream_resumes[job.job_id] = bill.resumed_from_batch
            if obs.is_enabled():
                obs.counter_add("service.stream_resumed", 1.0)
        if bill.crashes and obs.is_enabled():
            obs.counter_add("service.stream_crashes", float(bill.crashes))
        self.stream_traces[job.job_id] = result.trace_json()
        energy = float(sum(e.report.energy_joules for e in result.epochs))
        total_seconds = result.total_runtime_seconds + bill.overhead_seconds
        # Healthy run: every machine slot contributed to every epoch.
        self._feed_breakers(None, (), False, start_s + total_seconds)
        if obs.is_enabled():
            obs.counter_add("service.stream_jobs", 1.0)
            obs.counter_add(
                "service.stream_reassigned_edges",
                float(result.total_reassigned_edges),
            )
            obs.counter_add(
                "service.stream_moved_edges", float(result.total_moved_edges)
            )
        return _settle(
            job,
            start_s,
            start_s,
            total_seconds,
            energy,
            deadline,
            "stream",
            attempts=1,
            retries_backoff_s=bill.backoff_seconds,
            degraded=degraded,
            supersteps=sum(e.report.num_supersteps for e in result.epochs),
            crashes=bill.crashes,
        )

    def _attempt_loop(
        self,
        job: JobRequest,
        graph: DiGraph,
        application: Any,
        weights: NDArray[np.float64],
        start_s: float,
        deadline: Optional[float],
        degraded: bool,
    ) -> JobRecord:
        policy = self.policy
        m = self.cluster.num_machines
        budget = RetryBudget(policy.retry, self._rng)
        backoff_total = 0.0
        crashes = 0
        rebalanced = False
        attempt = 1
        while True:
            schedule = job.schedule_for(m, attempt)
            schedule_machines: Tuple[int, ...] = ()
            if schedule is not None:
                schedule_machines = tuple(
                    sorted({c.machine for c in schedule.crashes})
                )
            system = GraphProcessingSystem(
                self.cluster,
                faults=schedule,
                checkpoint=self.checkpoint,
                retry=self.engine_retry,
                monitor=self.monitor,
                rebalance=True,
            )
            attempt_start = start_s + backoff_total
            try:
                outcome = system.run(
                    application,
                    graph,
                    make_partitioner(job.partitioner),
                    weights=weights,
                )
            except RecoveryError as exc:
                n_crashes, _ = self._feed_breakers(
                    None, schedule_machines, True, attempt_start
                )
                crashes += n_crashes
                if obs.is_enabled():
                    obs.counter_add("service.attempt_failures", 1.0)
                restart = budget.restart()
                if budget.exhausted(restart):
                    return _record(
                        job,
                        STATUS_FAILED,
                        start_s,
                        end_s=attempt_start,
                        attempts=attempt,
                        retries_backoff_s=backoff_total,
                        degraded=degraded,
                        crashes=crashes,
                        rebalanced=rebalanced,
                        reason=(
                            f"all {policy.max_attempts} attempts failed; "
                            f"last: {exc}"
                        ),
                    )
                backoff_total += budget.pause(restart)
                if (
                    deadline is not None
                    and start_s + backoff_total >= deadline
                ):
                    return _record(
                        job,
                        STATUS_DEADLINE_EXCEEDED,
                        start_s,
                        end_s=deadline,
                        attempts=attempt,
                        retries_backoff_s=max(0.0, deadline - start_s),
                        degraded=degraded,
                        crashes=crashes,
                        rebalanced=rebalanced,
                        reason="deadline passed during retry backoff",
                    )
                attempt = restart + 1
                continue

            report = outcome.report
            n_crashes, reb = self._feed_breakers(
                report, schedule_machines, False,
                attempt_start + report.runtime_seconds,
            )
            crashes += n_crashes
            rebalanced = rebalanced or reb
            return _settle(
                job,
                start_s,
                attempt_start,
                report.runtime_seconds,
                report.energy_joules,
                deadline,
                "run",
                attempts=attempt,
                retries_backoff_s=backoff_total,
                degraded=degraded,
                supersteps=report.num_supersteps,
                crashes=crashes,
                rebalanced=rebalanced,
            )

    # ------------------------------------------------------------------ #
    # The replay loop
    # ------------------------------------------------------------------ #

    def run_workload(self, workload: Workload) -> ServiceResult:
        """Replay a workload to completion and return the full history.

        The service is a 1-shard federation: the replay runs on
        :class:`~repro.federation.federation.FederationService`'s event
        loop with this service as its only shard, so the two can never
        disagree on admission, scheduling or accounting.  Arrivals are
        admitted at their submission instants and, whenever the server
        frees, the highest-priority admitted job starts.  A workload's
        embedded shard faults are ignored: one service has no shard to
        crash.
        """
        from repro.faults.shards import ShardFaultSchedule
        from repro.federation.federation import FederationService

        federation = FederationService._around(self)
        return federation.run_workload(
            workload, shard_faults=ShardFaultSchedule()
        ).service_view()
