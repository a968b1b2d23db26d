"""Deterministic multi-tenant job service over fault-aware runs.

The serving layer of the reproduction: a stream of graph jobs (app ×
graph × priority × deadline) scheduled onto one heterogeneous cluster on
a simulated clock, with admission control, backpressure, deadlines,
seeded retries, per-machine circuit breakers and load shedding.  The
replay itself is :class:`repro.federation.FederationService`, with one
cluster or several; this package holds the requests, workloads,
policies, breakers and result types it uses.  See DESIGN.md §12 and
``repro serve --help``.
"""

from repro.service.breaker import (
    BreakerBoard,
    BreakerEvent,
    BreakerPolicy,
    CircuitBreaker,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.service.estimate import projected_seconds
from repro.service.request import (
    FaultSpec,
    GraphSpec,
    JOB_STATUSES,
    JobRecord,
    JobRequest,
    STATUS_COMPLETED,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_FAILED,
    STATUS_REJECTED,
    WORKLOAD_FORMAT_VERSION,
    Workload,
)
from repro.service.service import ServicePolicy, ServiceResult
from repro.service.workload import generate_workload

__all__ = [
    "BreakerBoard",
    "BreakerEvent",
    "BreakerPolicy",
    "CircuitBreaker",
    "FaultSpec",
    "GraphSpec",
    "JOB_STATUSES",
    "JobRecord",
    "JobRequest",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "STATUS_COMPLETED",
    "STATUS_DEADLINE_EXCEEDED",
    "STATUS_FAILED",
    "STATUS_REJECTED",
    "ServicePolicy",
    "ServiceResult",
    "WORKLOAD_FORMAT_VERSION",
    "Workload",
    "generate_workload",
    "projected_seconds",
]
