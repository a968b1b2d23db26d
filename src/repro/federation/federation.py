"""The federated multi-scheduler service: N shards, M clusters, one clock.

:class:`FederationService` replays a job workload across ``N``
scheduler shards, each a :class:`~repro.service.service.JobService`
fronting its own heterogeneous cluster, behind a consistent-hash
ring keyed by graph content fingerprints (:mod:`repro.federation.ring`).
All shards run on **one seeded simulated clock** driven by a single
deterministic event loop, so the byte-identical replay contract of the
whole library survives the scale-out: the same workload file plus the
same shard-fault schedule replays to the same federation trace bytes.
It is the library's one public replay: a single job service is a
1-shard federation, read through :meth:`FederationResult.service_view`,
and the compat golden pins the bytes of that 1-shard trace.

The robustness layer, in the order a job meets it:

* **Federated admission** — a global backlog bound and the composition
  of every shard's :class:`~repro.service.breaker.BreakerBoard` into
  backpressure: a shard whose breakers are all open is routed around,
  and if *every* reachable shard is saturated the arrival is rejected
  with a typed reason.
* **Content routing** — the ring sends each job to the shard that has
  seen its graph before, keeping the PR 4 content-keyed caches hot; the
  federation shares one graph memo across shards, and runtime estimates
  dedupe process-wide through the cluster-keyed kernel estimate cache.
* **Failover** — when a shard crashes (:class:`ShardCrash`), its queue
  and its destroyed in-flight job are re-routed along the ring's
  preference order; failover is a custody transfer, not a new admission,
  so an already-admitted job is never bounced by the target's queue
  bound.
* **Journal recovery** — every custody change is journaled append-only
  (:mod:`repro.federation.journal`); a restarted shard re-admits exactly
  the jobs its journal still owes, in journal order, which makes crash
  recovery a deterministic replay rather than a guess.
* **Work stealing** — a shard going idle schedules a steal check at the
  instant it frees; if a reachable peer is backlogged past the policy
  threshold, the idle shard takes the job that would have run last.
* **Exactly-once** — the federation ledger accepts exactly one terminal
  record per submitted job and raises :class:`FederationError` on any
  violation (checked, not assumed — the chaos soak proves it under
  crash/partition/slowdown schedules).
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.errors import FederationError
from repro.faults.checkpoint import CheckpointPolicy, RetryPolicy
from repro.faults.shards import ShardCrash, ShardFaultSchedule
from repro.federation.journal import ShardJournal
from repro.federation.ring import HashRing
from repro.graph.digraph import DiGraph
from repro.kernels.cache import graph_fingerprint
from repro.obs import context as obs
from repro.service.breaker import BreakerPolicy
from repro.service.request import (
    STATUS_REJECTED,
    JobRecord,
    JobRequest,
    Workload,
)
from repro.service.service import (
    JobService,
    ServicePolicy,
    ServiceResult,
    _locate_reason,
)
from repro.streaming.recovery import CheckpointCustody

__all__ = [
    "FederationPolicy",
    "FederationEvent",
    "ShardReport",
    "FederationResult",
    "FederationService",
]

#: Trace schema version of the federation trace JSON.
FEDERATION_TRACE_VERSION = 1

#: Seed stride between shard retry-RNG streams.  Shard 0 keeps the plain
#: workload seed, so a 1-shard replay draws its backoffs from the
#: workload seed itself.
_SHARD_SEED_STRIDE = 1000003


def _sched_key(job: JobRequest) -> Tuple[int, float, str]:
    """The service's scheduling order: priority first, FIFO within."""
    return (-job.priority, job.submit_s, job.job_id)


@dataclass(frozen=True)
class FederationPolicy:
    """Federation-level routing, stealing and backpressure knobs.

    Attributes
    ----------
    ring_replicas:
        Virtual points per shard on the consistent-hash ring.
    steal_backlog:
        Queue length at which a shard's backlog becomes stealable by an
        idle peer.
    max_global_backlog:
        Optional bound on the total queued jobs across alive shards; an
        arrival past the bound is rejected before routing (federation
        backpressure).  ``None`` disables the check.

    An arrival rejected by its primary shard's admission check always
    tries the ring's failover shards before being rejected.
    """

    ring_replicas: int = 64
    steal_backlog: int = 2
    max_global_backlog: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ring_replicas < 1:
            raise FederationError(
                f"ring_replicas must be >= 1, got {self.ring_replicas}"
            )
        if self.steal_backlog < 1:
            raise FederationError(
                f"steal_backlog must be >= 1, got {self.steal_backlog}"
            )
        if (
            self.max_global_backlog is not None
            and self.max_global_backlog < 1
        ):
            raise FederationError(
                f"max_global_backlog must be >= 1, got "
                f"{self.max_global_backlog}"
            )


@dataclass(frozen=True)
class FederationEvent:
    """One federation-level incident on the shared simulated clock."""

    time_s: float
    kind: str
    shard: int
    job_id: str = ""
    detail: str = ""

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "time_s": self.time_s,
            "kind": self.kind,
            "shard": self.shard,
            "job_id": self.job_id,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ShardReport:
    """Everything one shard contributed to a federation replay."""

    shard_id: int
    cluster_machines: Tuple[str, ...]
    breaker_events: Tuple[Any, ...]
    breaker_states: Tuple[str, ...]
    breaker_trips: int
    journal: Tuple[Any, ...]
    max_queue_depth: int
    jobs_completed: int
    steals_in: int
    steals_out: int
    failovers_in: int
    failovers_out: int
    crashes: int

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "cluster_machines": list(self.cluster_machines),
            "breaker_events": [e.to_jsonable() for e in self.breaker_events],
            "breaker_states": list(self.breaker_states),
            "breaker_trips": self.breaker_trips,
            "journal": [e.to_jsonable() for e in self.journal],
            "max_queue_depth": self.max_queue_depth,
            "jobs_completed": self.jobs_completed,
            "steals_in": self.steals_in,
            "steals_out": self.steals_out,
            "failovers_in": self.failovers_in,
            "failovers_out": self.failovers_out,
            "crashes": self.crashes,
        }


@dataclass(frozen=True)
class FederationResult:
    """One federation replay: merged records plus the per-shard story."""

    records: Tuple[JobRecord, ...]
    placements: Tuple[Tuple[str, int], ...]
    shards: Tuple[ShardReport, ...]
    events: Tuple[FederationEvent, ...]
    makespan_s: float
    shard_crashes: int
    failovers: int
    steals: int
    recoveries: int
    aborted_runs: int
    lost_seconds: float

    def service_view(self) -> ServiceResult:
        """The replay flattened into the :class:`ServiceResult` shape.

        For a 1-shard federation this is *the* service result: what
        ``repro serve`` without ``--shards`` prints, traces and stores.
        For wider federations the per-shard breaker histories are merged
        by (time, shard) and machine indices stay shard-local.
        """
        merged: List[Tuple[float, int, int, Any]] = []
        for report in self.shards:
            for idx, event in enumerate(report.breaker_events):
                merged.append((event.time_s, report.shard_id, idx, event))
        merged.sort(key=lambda item: item[:3])
        states: List[str] = []
        for report in self.shards:
            states.extend(report.breaker_states)
        return ServiceResult(
            records=self.records,
            breaker_events=tuple(item[3] for item in merged),
            breaker_states=tuple(states),
            breaker_trips=sum(r.breaker_trips for r in self.shards),
            makespan_s=self.makespan_s,
            max_queue_depth=max(
                (r.max_queue_depth for r in self.shards), default=0
            ),
        )

    def summary(self) -> Dict[str, Any]:
        """Service-level metrics plus the federation robustness counters."""
        base = self.service_view().summary()
        base.update(
            {
                "shards": len(self.shards),
                "shard_crashes": self.shard_crashes,
                "failovers": self.failovers,
                "steals": self.steals,
                "recoveries": self.recoveries,
                "aborted_runs": self.aborted_runs,
                "lost_seconds_total": self.lost_seconds,
            }
        )
        return base

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "format_version": FEDERATION_TRACE_VERSION,
            "records": [r.to_jsonable() for r in self.records],
            "placements": {job_id: shard for job_id, shard in self.placements},
            "events": [e.to_jsonable() for e in self.events],
            "shards": [s.to_jsonable() for s in self.shards],
            "summary": self.summary(),
        }

    def trace_json(self) -> str:
        """Canonical byte-reproducible trace of the whole federation."""
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)


@dataclass
class _Shard:
    """Mutable per-shard state inside one replay (not public API)."""

    shard_id: int
    service: JobService
    journal: ShardJournal
    queue: List[JobRequest] = field(default_factory=list)
    free_at: float = 0.0
    alive: bool = True
    down_until: float = 0.0
    inflight: Optional[Tuple[JobRequest, float]] = None
    max_depth: int = 0
    jobs_completed: int = 0
    steals_in: int = 0
    steals_out: int = 0
    failovers_in: int = 0
    failovers_out: int = 0
    crashes: int = 0

    def reset(self, seed: int) -> None:
        """Forget the previous replay: every field back to its default, a
        fresh journal, and the service's replay state seeded anew."""
        for f in fields(self):
            if f.default is not MISSING:
                setattr(self, f.name, f.default)
            elif f.default_factory is not MISSING:
                setattr(self, f.name, f.default_factory())
        self.journal = ShardJournal(self.shard_id)
        self.service._reset(seed)


class FederationService:
    """Replays a workload across N scheduler shards deterministically.

    Parameters
    ----------
    clusters:
        One heterogeneous cluster per shard (the federation width is
        ``len(clusters)``).  One cluster replays a single job service.
    policy, breaker_policy, estimator, checkpoint, engine_retry,
    stream_checkpoint:
        Per-shard service knobs, shared by every shard (see
        :class:`~repro.service.service.JobService`).
    federation:
        Routing/stealing/backpressure knobs (:class:`FederationPolicy`).
    custody:
        Optional shared :class:`~repro.streaming.recovery.
        CheckpointCustody`.  When given, every shard checkpoints its
        streaming jobs through it, and a shard crash mid-stream fails the
        stream over in ring order: custody is sealed at the crash instant
        (snapshots still being written are dropped) and the adopting
        shard resumes from the last durable checkpoint instead of
        restarting the stream from scratch.  Without it streaming jobs
        restart from batch 0 on failover, exactly as plain jobs re-run.
    """

    def __init__(
        self,
        clusters: Sequence[Cluster],
        policy: Optional[ServicePolicy] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        federation: Optional[FederationPolicy] = None,
        estimator: Optional[Any] = None,
        checkpoint: Optional[CheckpointPolicy] = None,
        engine_retry: Optional[RetryPolicy] = None,
        custody: Optional[CheckpointCustody] = None,
        stream_checkpoint: Optional[CheckpointPolicy] = None,
    ):
        clusters = tuple(clusters)
        if not clusters:
            raise FederationError("federation needs at least one cluster")
        self.federation = (
            federation if federation is not None else FederationPolicy()
        )
        self.ring = HashRing(
            range(len(clusters)), replicas=self.federation.ring_replicas
        )
        #: Shared graph memo: every shard resolves graph specs through
        #: this one table, so a graph is loaded once per federation and
        #: the content-keyed kernel caches see one object per input.
        self._graphs: Dict[Tuple[Any, ...], DiGraph] = {}
        self._fingerprints: Dict[Tuple[Any, ...], str] = {}
        self.custody = custody
        self.shards: Tuple[_Shard, ...] = tuple(
            _Shard(
                shard_id=i,
                service=JobService(
                    cluster,
                    policy=policy,
                    breaker_policy=breaker_policy,
                    estimator=estimator,
                    checkpoint=checkpoint,
                    engine_retry=engine_retry,
                    stream_checkpoint=stream_checkpoint,
                ),
                journal=ShardJournal(i),
            )
            for i, cluster in enumerate(clusters)
        )
        for shard in self.shards:
            shard.service._graphs = self._graphs
            shard.service.checkpoints = custody

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def _route_key(self, job: JobRequest) -> str:
        """Content fingerprint routing key (shared graph memo)."""
        key = job.graph.key()
        fingerprint = self._fingerprints.get(key)
        if fingerprint is None:
            graph = self._graphs.get(key)
            if graph is None:
                graph = job.graph.load()
                self._graphs[key] = graph
            fingerprint = graph_fingerprint(graph)
            self._fingerprints[key] = fingerprint
        return fingerprint

    def _partitioned(self, shard_id: int, now_s: float) -> bool:
        for p in self._shard_faults.partitions:
            if p.shard == shard_id and p.time_s <= now_s < p.time_s + p.duration_s:
                return True
        return False

    def _slow_factor(self, shard_id: int, now_s: float) -> float:
        factor = 1.0
        for s in self._shard_faults.slowdowns:
            if s.shard == shard_id and s.active_at(now_s):
                factor *= s.factor
        return factor

    def _reachable(self, shard: _Shard, now_s: float) -> bool:
        return shard.alive and not self._partitioned(shard.shard_id, now_s)

    def _routable_order(
        self, key: str, now_s: float, exclude: Optional[int] = None
    ) -> List[int]:
        """Ring preference filtered to reachable shards, healthy first.

        Shards whose breaker boards are fully open are kept as a last
        resort: they only receive work when no healthy shard is
        reachable (the breaker-composition half of global backpressure).
        """
        order = self.ring.preference(key)
        eligible = [
            sid
            for sid in order
            if sid != exclude and self._reachable(self.shards[sid], now_s)
        ]
        healthy = [
            sid
            for sid in eligible
            if not self.shards[sid].service.board.all_open()
        ]
        degraded = [sid for sid in eligible if sid not in healthy]
        return healthy + degraded

    # ------------------------------------------------------------------ #
    # Ledger (exactly-once)
    # ------------------------------------------------------------------ #

    def _commit(
        self, record: JobRecord, shard_id: int
    ) -> None:
        if record.job_id in self._ledger:
            raise FederationError(
                f"exactly-once violation: job {record.job_id!r} reached a "
                f"second terminal record"
            )
        self._ledger[record.job_id] = record
        self._placements[record.job_id] = shard_id

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #

    def _fed_event(
        self, time_s: float, kind: str, shard: int, job_id: str = "",
        detail: str = "",
    ) -> None:
        self._events.append(
            FederationEvent(
                time_s=time_s, kind=kind, shard=shard, job_id=job_id,
                detail=detail,
            )
        )
        if obs.is_enabled():
            obs.event(
                f"federation/{kind}", shard=shard, job_id=job_id,
                detail=detail,
            )
            obs.counter_add(f"federation.{kind}", 1.0)

    def _reject(self, job: JobRequest, reason: str) -> None:
        record = JobRecord(
            job_id=job.job_id,
            app=job.app,
            status=STATUS_REJECTED,
            priority=job.priority,
            submit_s=job.submit_s,
            reason=reason,
        )
        self._commit(record, -1)
        if obs.is_enabled():
            obs.counter_add("service.rejected", 1.0)
            obs.event("service/reject", job_id=job.job_id, reason=reason)

    def _admit(self, job: JobRequest, now_s: float) -> None:
        """Route one arrival: global backpressure, ring, spill, reject."""
        fed = self.federation
        backlog = sum(
            len(shard.queue) for shard in self.shards if shard.alive
        )
        if (
            fed.max_global_backlog is not None
            and backlog >= fed.max_global_backlog
        ):
            self._reject(
                job,
                f"federation backlog: {backlog} queued at limit "
                f"{fed.max_global_backlog}",
            )
            return
        key = self._route_key(job)
        candidates = self._routable_order(key, now_s)
        if not candidates:
            self._reject(
                job, "no reachable shard: all shards down or partitioned"
            )
            return
        primary = self.ring.route(key)
        first_reason = ""
        for position, sid in enumerate(candidates):
            shard = self.shards[sid]
            reason = shard.service._admission_error(
                job, shard.queue, shard.free_at
            )
            if not reason:
                shard.queue.append(job)
                shard.max_depth = max(shard.max_depth, len(shard.queue))
                detail = "primary" if sid == primary else f"spill #{position}"
                shard.journal.append(
                    now_s, "assigned", job.job_id, detail
                )
                if sid != primary:
                    self._fed_event(
                        now_s, "reroute", sid, job.job_id,
                        f"primary shard {primary} unavailable or saturated",
                    )
                if obs.is_enabled():
                    obs.counter_add("service.admitted", 1.0)
                    obs.gauge_set(
                        "service.queue_depth", len(shard.queue),
                        shard=sid,
                    )
                return
            if not first_reason:
                first_reason = reason
        self._reject(
            job,
            _locate_reason(first_reason, self._job_index.get(job.job_id)),
        )

    def _failover(
        self, job: JobRequest, from_shard: _Shard, now_s: float
    ) -> None:
        """Move custody of an admitted job off a crashed shard.

        Failover is a custody transfer, not a new admission: the target
        shard's queue bound does not apply (the job already passed
        admission once).  With no reachable target the job stays pending
        in the crashed shard's journal and is re-admitted when the shard
        recovers and replays it.
        """
        key = self._route_key(job)
        targets = self._routable_order(
            key, now_s, exclude=from_shard.shard_id
        )
        if not targets:
            self._fed_event(
                now_s, "strand", from_shard.shard_id, job.job_id,
                "no reachable failover target; waiting for journal replay",
            )
            return
        target = self.shards[targets[0]]
        from_shard.journal.append(
            now_s, "failover_out", job.job_id, f"to shard {target.shard_id}"
        )
        target.journal.append(
            now_s, "failover_in", job.job_id,
            f"from shard {from_shard.shard_id}",
        )
        from_shard.failovers_out += 1
        target.failovers_in += 1
        self._failover_count += 1
        target.queue.append(job)
        target.max_depth = max(target.max_depth, len(target.queue))
        self._fed_event(
            now_s, "failover", target.shard_id, job.job_id,
            f"from crashed shard {from_shard.shard_id}",
        )

    def _handle_crash(self, event: ShardCrash) -> None:
        shard = self.shards[event.shard]
        now_s = event.time_s
        if not shard.alive:
            shard.down_until = max(
                shard.down_until, now_s + event.downtime_s
            )
            self._fed_event(
                now_s, "shard_crash", event.shard,
                detail="already down; outage extended",
            )
            return
        shard.alive = False
        shard.down_until = now_s + event.downtime_s
        shard.crashes += 1
        self._crash_count += 1
        self._fed_event(
            now_s, "shard_crash", event.shard,
            detail=f"down until {shard.down_until:.6f}s",
        )
        if shard.inflight is not None:
            job, start_s = shard.inflight
            shard.inflight = None
            # The run never finished here: its stream trace (priced when
            # the job started) belongs to the adopting shard alone.
            shard.service.stream_traces.pop(job.job_id, None)
            lost = max(0.0, now_s - start_s)
            self._lost_seconds += lost
            self._aborted_runs += 1
            shard.journal.append(
                now_s, "aborted", job.job_id,
                f"in-flight run destroyed after {lost:.6f}s",
            )
            self._fed_event(
                now_s, "abort", event.shard, job.job_id,
                f"in-flight run lost {lost:.6f}s of work",
            )
            self._failover(job, shard, now_s)
        for job in sorted(shard.queue, key=_sched_key):
            self._failover(job, shard, now_s)
        shard.queue.clear()
        shard.free_at = shard.down_until

    def _handle_recovery(self, shard: _Shard, now_s: float) -> None:
        shard.alive = True
        shard.free_at = now_s
        pending = shard.journal.pending_job_ids()
        self._fed_event(
            now_s, "shard_recover", shard.shard_id,
            detail=f"journal replay found {len(pending)} pending job(s)",
        )
        for job_id in pending:
            if job_id in self._ledger:
                raise FederationError(
                    f"journal/ledger disagreement on recovery: job "
                    f"{job_id!r} is pending on shard {shard.shard_id} but "
                    f"already has a terminal record"
                )
            job = self._jobs_by_id[job_id]
            shard.journal.append(
                now_s, "recovered", job_id, "journal replay after restart"
            )
            shard.queue.append(job)
            shard.max_depth = max(shard.max_depth, len(shard.queue))
            self._recovery_count += 1
            self._fed_event(
                now_s, "recovered", shard.shard_id, job_id,
                "re-admitted from journal",
            )
        if not shard.queue:
            self._steal_checks[shard.shard_id] = now_s

    def _handle_steal_check(self, shard: _Shard, now_s: float) -> None:
        """An idle shard looks for a backlogged reachable peer to relieve."""
        if (
            not shard.alive
            or shard.queue
            or self._partitioned(shard.shard_id, now_s)
        ):
            return
        donors = [
            peer
            for peer in self.shards
            if peer.shard_id != shard.shard_id
            and self._reachable(peer, now_s)
            and len(peer.queue) >= self.federation.steal_backlog
        ]
        if not donors:
            return
        donor = max(donors, key=lambda p: (len(p.queue), -p.shard_id))
        job = max(donor.queue, key=_sched_key)
        donor.queue.remove(job)
        donor.journal.append(
            now_s, "steal_out", job.job_id, f"to shard {shard.shard_id}"
        )
        shard.journal.append(
            now_s, "steal_in", job.job_id, f"from shard {donor.shard_id}"
        )
        donor.steals_out += 1
        shard.steals_in += 1
        self._steal_count += 1
        shard.queue.append(job)
        shard.max_depth = max(shard.max_depth, len(shard.queue))
        self._fed_event(
            now_s, "steal", shard.shard_id, job.job_id,
            f"stolen from shard {donor.shard_id} "
            f"(backlog {len(donor.queue) + 1})",
        )

    def _handle_start(self, shard: _Shard, now_s: float) -> None:
        """Pop the next job on a shard and price its run synchronously."""
        start_s = max(shard.free_at, now_s)
        job = min(shard.queue, key=_sched_key)
        shard.queue.remove(job)
        if obs.is_enabled():
            obs.gauge_set(
                "service.queue_depth", len(shard.queue),
                shard=shard.shard_id,
            )
        trips_before = shard.service.board.total_trips()
        record = shard.service._run_job(job, start_s, len(shard.queue))
        if obs.is_enabled():
            trips = shard.service.board.total_trips() - trips_before
            if trips:
                obs.counter_add("service.breaker_trips", float(trips))
        resumed_from = shard.service.stream_resumes.pop(job.job_id, None)
        if resumed_from is not None:
            shard.journal.append(
                start_s,
                f"resumed:{resumed_from}",
                job.job_id,
                "continued mid-stream from durable checkpoint",
            )
            self._fed_event(
                start_s, "stream_resume", shard.shard_id, job.job_id,
                f"resumed from batch cursor {resumed_from}",
            )
        end_s = record.end_s if record.end_s is not None else start_s
        occupancy = (end_s - start_s) * self._slow_factor(
            shard.shard_id, start_s
        )
        occupied_until = start_s + occupancy
        crash_at = self._next_crash(shard.shard_id, start_s, occupied_until)
        if crash_at is not None:
            # The run will be destroyed mid-flight: hold the job as
            # in-flight and let the crash event abort and re-route it.
            # For a streaming job with custody, seal the checkpoint set
            # at the crash instant: snapshots durable by then survive the
            # failover, snapshots still being written die with the shard.
            if self.custody is not None and job.graph.mutations is not None:
                factor = self._slow_factor(shard.shard_id, start_s)
                rel_cutoff = (crash_at - start_s) / factor
                sealed = self.custody.seal(job.job_id, rel_cutoff)
                if sealed is not None:
                    shard.journal.append(
                        start_s,
                        f"checkpoint:{sealed.batch_cursor}",
                        job.job_id,
                        f"durable at shard-crash cutoff {rel_cutoff:.6f}s",
                    )
            shard.inflight = (job, start_s)
            shard.free_at = occupied_until
            return
        self._commit(record, shard.shard_id)
        if self.custody is not None:
            self.custody.clear(job.job_id)
        shard.journal.append(
            start_s,
            f"completed:{record.status}",
            job.job_id,
            f"end={end_s:.6f} attempts={record.attempts}",
        )
        shard.jobs_completed += 1
        shard.free_at = occupied_until
        if not shard.queue:
            self._steal_checks[shard.shard_id] = occupied_until

    def _next_crash(
        self, shard_id: int, start_s: float, end_s: float
    ) -> Optional[float]:
        """First shard crash strictly inside a run's occupancy window."""
        for crash in self._sorted_crashes:
            if crash.shard != shard_id:
                continue
            if start_s < crash.time_s < end_s:
                return crash.time_s
            if crash.time_s >= end_s:
                break
        return None

    # ------------------------------------------------------------------ #
    # The replay loop
    # ------------------------------------------------------------------ #

    def run_workload(
        self,
        workload: Workload,
        shard_faults: Optional[ShardFaultSchedule] = None,
    ) -> FederationResult:
        """Replay a workload across the federation to completion.

        The loop is a multi-server discrete-event simulation on one
        clock.  At each step the earliest pending event wins; ties break
        by a fixed kind order (arrivals, then shard faults/recoveries,
        then job starts, then steal checks) and then by shard id, so two
        identical replays walk the identical event sequence.

        ``shard_faults`` overrides the workload's own embedded schedule
        (if any); passing neither runs a fault-free federation.  Every
        call starts from fresh per-shard state (journals, queues, clocks,
        counters, breakers), so a second replay on the same instance is
        byte-identical to the first.
        """
        faults = shard_faults
        if faults is None:
            faults = workload.shard_faults
        if faults is None:
            faults = ShardFaultSchedule()
        faults.validate_for(self.num_shards)
        self._shard_faults = faults
        self._sorted_crashes: Tuple[ShardCrash, ...] = tuple(
            sorted(faults.crashes, key=lambda c: (c.time_s, c.shard))
        )
        fault_stream = faults.sorted_events()

        arrivals = list(workload.sorted_jobs())
        self._jobs_by_id = {job.job_id: job for job in arrivals}
        self._job_index = {
            job.job_id: i for i, job in enumerate(workload.jobs)
        }
        self._ledger: Dict[str, JobRecord] = {}
        self._placements: Dict[str, int] = {}
        self._events: List[FederationEvent] = []
        self._steal_checks: Dict[int, float] = {}
        self._crash_count = 0
        self._failover_count = 0
        self._steal_count = 0
        self._recovery_count = 0
        self._aborted_runs = 0
        self._lost_seconds = 0.0
        for shard in self.shards:
            shard.reset(workload.seed + shard.shard_id * _SHARD_SEED_STRIDE)

        ptr = 0
        fptr = 0
        now = 0.0
        total = len(arrivals)
        with obs.span(
            "federation/run", jobs=total, shards=self.num_shards
        ) as span:
            while len(self._ledger) < total:
                candidates: List[Tuple[float, int, int, str]] = []
                if ptr < total:
                    candidates.append(
                        (arrivals[ptr].submit_s, 0, -1, "arrival")
                    )
                if fptr < len(fault_stream):
                    candidates.append(
                        (fault_stream[fptr].time_s, 1, -1, "fault")
                    )
                for shard in self.shards:
                    if not shard.alive:
                        candidates.append(
                            (shard.down_until, 1, shard.shard_id, "recover")
                        )
                    elif shard.queue:
                        candidates.append(
                            (
                                max(shard.free_at, now),
                                2,
                                shard.shard_id,
                                "start",
                            )
                        )
                for sid, check_at in sorted(self._steal_checks.items()):
                    candidates.append((check_at, 3, sid, "steal_check"))
                if not candidates:
                    missing = sorted(
                        set(self._jobs_by_id) - set(self._ledger)
                    )
                    raise FederationError(
                        f"replay stranded {len(missing)} job(s) with no "
                        f"pending event: {missing[:5]}"
                    )
                time_s, _, tiebreak, action = min(
                    candidates, key=lambda c: c[:3]
                )
                now = time_s
                if action == "arrival":
                    job = arrivals[ptr]
                    ptr += 1
                    self._admit(job, now)
                elif action == "fault":
                    event = fault_stream[fptr]
                    fptr += 1
                    if isinstance(event, ShardCrash):
                        self._handle_crash(event)
                    else:
                        kind = (
                            "shard_partition"
                            if type(event).__name__ == "ShardPartition"
                            else "shard_slowdown"
                        )
                        self._fed_event(
                            now, kind, event.shard,
                            detail=f"window starts at {event.time_s:.6f}s",
                        )
                elif action == "recover":
                    self._handle_recovery(self.shards[tiebreak], now)
                elif action == "start":
                    self._handle_start(self.shards[tiebreak], now)
                else:
                    del self._steal_checks[tiebreak]
                    self._handle_steal_check(self.shards[tiebreak], now)
            span.set(jobs_done=len(self._ledger))

        records = tuple(
            sorted(
                self._ledger.values(), key=lambda r: (r.submit_s, r.job_id)
            )
        )
        makespan = max(
            (r.end_s for r in records if r.end_s is not None), default=0.0
        )
        reports = tuple(
            ShardReport(
                shard_id=shard.shard_id,
                cluster_machines=tuple(
                    m.name for m in shard.service.cluster.machines
                ),
                breaker_events=tuple(shard.service.board.events),
                breaker_states=shard.service.board.states(),
                breaker_trips=shard.service.board.total_trips(),
                journal=shard.journal.entries,
                max_queue_depth=shard.max_depth,
                jobs_completed=shard.jobs_completed,
                steals_in=shard.steals_in,
                steals_out=shard.steals_out,
                failovers_in=shard.failovers_in,
                failovers_out=shard.failovers_out,
                crashes=shard.crashes,
            )
            for shard in self.shards
        )
        return FederationResult(
            records=records,
            placements=tuple(sorted(self._placements.items())),
            shards=reports,
            events=tuple(self._events),
            makespan_s=makespan,
            shard_crashes=self._crash_count,
            failovers=self._failover_count,
            steals=self._steal_count,
            recoveries=self._recovery_count,
            aborted_runs=self._aborted_runs,
            lost_seconds=self._lost_seconds,
        )
