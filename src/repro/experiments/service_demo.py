"""Job-service demo: every service policy firing in one replay.

A hand-scripted workload (no sampling — each phase is pinned to the
simulated clock) drives the multi-tenant job service through its four
behaviours on the Case-2 heterogeneous pair:

* **Backpressure** — a burst of simultaneous arrivals overflows the
  bounded queue; the overflow is rejected at admission.
* **Load shedding** — the burst also pushes the backlog past the
  shedding threshold, so its low-priority members run with a reduced
  superstep budget and come back flagged ``degraded``.
* **Deadline** — one job carries a deadline far below its CCR-projected
  runtime and is cancelled before consuming cluster time.
* **Circuit breaker** — three jobs pin a crash onto machine 1; the third
  trips its breaker open.  After the cooldown a clean job probes the
  half-open breaker and closes it again.

Run it via ``repro experiment service_demo`` (add ``--obs-dir`` to see
the rejection/deadline/breaker counters in the recorded metrics), or
replay the same scenario by hand with ``repro workload`` + ``repro
serve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.experiments.common import attach_provenance, case2_cluster
from repro.faults.checkpoint import CheckpointPolicy, RetryPolicy
from repro.faults.schedule import CrashFault, FaultSchedule
from repro.federation import FederationService
from repro.service import (
    BreakerPolicy,
    GraphSpec,
    JobRequest,
    ServicePolicy,
    ServiceResult,
    Workload,
)

__all__ = ["ServiceDemoResult", "run_service_demo", "demo_workload"]

#: Machine slot the scripted crashes target (the large Xeon).
HOT_MACHINE = 1


def demo_workload(seed: int = 20) -> Workload:
    """The scripted four-phase job stream."""
    graph = GraphSpec(vertices=600, alpha=2.1, seed=0)
    hot = FaultSchedule(
        crashes=(CrashFault(superstep=1, machine=HOT_MACHINE),), seed=seed
    )
    jobs: List[JobRequest] = []
    # Phase 1 — a deadline no projection can meet (admitted first: the
    # t=0 batch is processed in job-id order, and it sorts first).
    jobs.append(
        JobRequest(
            job_id="a-deadline-tight",
            app="pagerank",
            graph=graph,
            submit_s=0.0,
            priority=5,
            deadline_s=1e-7,
        )
    )
    # Phase 2 — burst at t=0: overflows the queue (depth 6, so the last
    # arrivals are rejected) and leaves the priority-0 members starting
    # with a backlog past the shedding threshold.
    for i in range(8):
        jobs.append(
            JobRequest(
                job_id=f"burst-{i}",
                app="pagerank",
                graph=graph,
                submit_s=0.0,
                priority=i % 2,
            )
        )
    # Phase 4 — three scripted crashes on machine 1 trip its breaker...
    for i in range(3):
        jobs.append(
            JobRequest(
                job_id=f"hot-{i}",
                app="pagerank",
                graph=graph,
                submit_s=0.5 + 0.01 * i,
                priority=2,
                faults=hot,
            )
        )
    # ...and a late clean job probes the half-open breaker closed.
    jobs.append(
        JobRequest(
            job_id="probe-clean",
            app="pagerank",
            graph=graph,
            submit_s=6.0,
            priority=2,
        )
    )
    return Workload(jobs=tuple(jobs), seed=seed)


@dataclass
class ServiceDemoResult:
    """Summary + breaker transitions of the demo replay."""

    result: ServiceResult

    def headers(self) -> Tuple[str, ...]:
        return ("metric", "value")

    def rows(self) -> List[Tuple[str, Any]]:
        summary = self.result.summary()
        rows: List[Tuple[str, Any]] = [
            (k, v) for k, v in sorted(summary.items())
        ]
        for e in self.result.breaker_events:
            rows.append(
                (
                    f"breaker m{e.machine} @ {e.time_s:.3f}s",
                    f"{e.from_state} -> {e.to_state} ({e.reason})",
                )
            )
        return rows


def run_service_demo(scale: float = 0.01, seed: int = 20) -> ServiceDemoResult:
    """Replay the scripted workload on the Case-2 pair."""
    service = FederationService(
        [case2_cluster(scale)],
        policy=ServicePolicy(
            max_queue_depth=6,
            shed_queue_depth=2,
            shed_priority_max=0,
            shed_iteration_cap=5,
            max_attempts=2,
        ),
        breaker_policy=BreakerPolicy(failure_threshold=3, cooldown_s=2.0),
        checkpoint=CheckpointPolicy(interval=5, restart_seconds=0.05),
        engine_retry=RetryPolicy(backoff_base_s=0.01),
    )
    result = service.run_workload(demo_workload(seed)).service_view()
    return attach_provenance(
        ServiceDemoResult(result=result), "service_demo",
        scale=scale, seed=seed,
    )
