"""Job requests, outcomes and workload files for the job service.

A *workload* is the service's unit of replay: a JSON document holding a
seed and a list of job requests, each pinning an application, a graph
spec, a priority, an optional deadline and an optional fault scenario to
submission time on the simulated clock.  Everything here is plain data —
like :class:`~repro.faults.FaultSchedule`, a workload can be saved,
shared, and replayed byte-identically.

Validation is strict and *located*: a malformed record raises
:class:`~repro.errors.WorkloadFormatError` whose message points at the
offending ``jobs[i]`` entry, which the CLI surfaces verbatim with exit
code 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.apps.registry import app_names
from repro.errors import FaultError, StreamError, WorkloadFormatError
from repro.faults.schedule import FaultSchedule
from repro.faults.shards import ShardFaultSchedule
from repro.graph.digraph import DiGraph
from repro.partition import PARTITIONERS
from repro.streaming.mutations import MutationStream
from repro.utils.validation import require_finite, require_integer

__all__ = [
    "WORKLOAD_FORMAT_VERSION",
    "SUPPORTED_FORMAT_VERSIONS",
    "GraphSpec",
    "FaultSpec",
    "JobRequest",
    "JobRecord",
    "Workload",
    "STATUS_COMPLETED",
    "STATUS_REJECTED",
    "STATUS_DEADLINE_EXCEEDED",
    "STATUS_FAILED",
    "JOB_STATUSES",
]

#: Current workload format.  Version 2 adds the optional top-level
#: ``shard_faults`` block (a federation shard-fault schedule embedded in
#: the workload, so one file pins a whole federated chaos replay);
#: version 3 adds the optional per-job ``graph.mutations`` block (a
#: streaming mutation scenario); version 4 lifts v3's fault-exclusive
#: rule and lets ``mutations`` compose with an explicit crash-only
#: ``faults`` schedule (the checkpointed streaming recovery path).
#: ``fault_rates`` still cannot compose with mutations: rates re-draw a
#: fresh schedule per *attempt*, which has no meaning under exactly-once
#: mid-stream resume.  Older files remain loadable unchanged; files
#: using newer blocks under an old declared version are rejected with a
#: located error.
WORKLOAD_FORMAT_VERSION = 4
SUPPORTED_FORMAT_VERSIONS: Tuple[int, ...] = (1, 2, 3, 4)

#: Typed job outcomes.  Every submitted job ends in exactly one of these.
STATUS_COMPLETED = "completed"
STATUS_REJECTED = "rejected"
STATUS_DEADLINE_EXCEEDED = "deadline_exceeded"
STATUS_FAILED = "failed"
JOB_STATUSES: Tuple[str, ...] = (
    STATUS_COMPLETED,
    STATUS_REJECTED,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_FAILED,
)


@dataclass(frozen=True)
class GraphSpec:
    """Which graph a job runs on — a dataset stand-in or a synthetic.

    Exactly one of ``dataset`` (+ ``scale``) or ``vertices`` (+ ``alpha``,
    ``seed``) must be given.  Jobs with equal specs share one loaded graph
    instance inside the service, which is what lets the content-keyed
    kernel caches hit across tenants.

    ``mutations`` (workload format v3) optionally attaches a streaming
    mutation scenario: the job then runs as a sequence of epochs with the
    incremental partitioner repairing the placement between them.  The
    stream is validated against the base graph — synthetic specs validate
    at construction, dataset specs at admission — and a stream
    referencing unknown vertex ids is rejected with a located error.
    """

    dataset: Optional[str] = None
    scale: float = 0.01
    vertices: Optional[int] = None
    alpha: float = 2.1
    seed: int = 0
    mutations: Optional[MutationStream] = None

    def __post_init__(self) -> None:
        for name in ("scale", "alpha"):
            require_finite(getattr(self, name), f"graph {name}", WorkloadFormatError)
        require_integer(self.seed, "graph seed", WorkloadFormatError)
        if self.vertices is not None:
            require_integer(self.vertices, "graph vertices", WorkloadFormatError)
        if (self.dataset is None) == (self.vertices is None):
            raise WorkloadFormatError(
                "graph spec needs exactly one of 'dataset' or 'vertices'"
            )
        if self.dataset is not None and not 0.0 < self.scale <= 1.0:
            raise WorkloadFormatError(
                f"graph scale must be in (0, 1], got {self.scale}"
            )
        if self.vertices is not None and self.vertices < 1:
            raise WorkloadFormatError(
                f"graph vertices must be >= 1, got {self.vertices}"
            )
        if self.vertices is not None and self.alpha <= 1.0:
            raise WorkloadFormatError(
                f"graph alpha must be > 1, got {self.alpha}"
            )
        if self.mutations is not None:
            base = (
                self.vertices
                if self.vertices is not None
                else self.mutations.base_vertices
            )
            if base is not None:
                try:
                    self.mutations.validate_for(base)
                except StreamError as exc:
                    raise WorkloadFormatError(
                        f"invalid mutation stream: {exc}"
                    ) from exc

    def key(self) -> Tuple[Any, ...]:
        """Hashable identity for the service's graph memo."""
        churn = (
            self.mutations.fingerprint() if self.mutations is not None else None
        )
        if self.dataset is not None:
            return ("dataset", self.dataset, float(self.scale), churn)
        return (
            "synthetic", self.vertices, float(self.alpha), self.seed, churn
        )

    def load(self) -> DiGraph:
        """Materialise the graph (deterministic for a given spec)."""
        if self.dataset is not None:
            from repro.graph.datasets import load_dataset

            return load_dataset(self.dataset, scale=self.scale)
        from repro.powerlaw.generator import generate_power_law_graph

        assert self.vertices is not None
        return generate_power_law_graph(
            num_vertices=self.vertices, alpha=self.alpha, seed=self.seed
        )

    def to_jsonable(self) -> Dict[str, Any]:
        payload: Dict[str, Any]
        if self.dataset is not None:
            payload = {"dataset": self.dataset, "scale": self.scale}
        else:
            payload = {
                "vertices": self.vertices,
                "alpha": self.alpha,
                "seed": self.seed,
            }
        if self.mutations is not None:
            payload["mutations"] = self.mutations.to_jsonable()
        return payload

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "GraphSpec":
        if not isinstance(payload, Mapping):
            raise WorkloadFormatError("'graph' must be an object")
        known = {"dataset", "scale", "vertices", "alpha", "seed", "mutations"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise WorkloadFormatError(f"unknown graph spec fields {unknown}")
        fields = dict(payload)
        if fields.get("mutations") is not None:
            try:
                fields["mutations"] = MutationStream.from_jsonable(
                    fields["mutations"]
                )
            except StreamError as exc:
                raise WorkloadFormatError(
                    f"malformed mutation stream: {exc}"
                ) from exc
        try:
            return cls(**fields)
        except TypeError as exc:
            raise WorkloadFormatError(f"malformed graph spec: {exc}") from exc


@dataclass(frozen=True)
class FaultSpec:
    """Seeded per-job fault rates, expanded into a schedule per attempt.

    The service derives one :class:`~repro.faults.FaultSchedule` per run
    *attempt* from ``(seed, attempt)``, so a retried job sees a fresh
    (still deterministic) failure draw — retrying into the identical crash
    forever would make retries meaningless.
    """

    crash_rate: float = 0.0
    slowdown_rate: float = 0.0
    network_rate: float = 0.0
    slowdown_factor: float = 4.0
    horizon: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "slowdown_rate", "network_rate", "slowdown_factor"):
            require_finite(getattr(self, name), f"fault {name}", WorkloadFormatError)
        for name in ("horizon", "seed"):
            require_integer(getattr(self, name), f"fault {name}", WorkloadFormatError)
        for name in ("crash_rate", "slowdown_rate", "network_rate"):
            rate = float(getattr(self, name))
            if not 0.0 <= rate <= 1.0:
                raise WorkloadFormatError(
                    f"fault {name} must be in [0, 1], got {rate}"
                )
        if self.horizon < 1:
            raise WorkloadFormatError(
                f"fault horizon must be >= 1, got {self.horizon}"
            )
        if self.slowdown_factor < 1.0:
            raise WorkloadFormatError(
                f"fault slowdown_factor must be >= 1, got "
                f"{self.slowdown_factor}"
            )

    @property
    def is_empty(self) -> bool:
        return (
            self.crash_rate == 0.0
            and self.slowdown_rate == 0.0
            and self.network_rate == 0.0
        )

    def schedule_for(self, num_machines: int, attempt: int) -> FaultSchedule:
        """The schedule one run attempt is priced under (1-based attempt)."""
        return FaultSchedule.generate(
            num_machines=num_machines,
            num_supersteps=self.horizon,
            seed=self.seed * 1000003 + attempt,
            crash_rate=self.crash_rate,
            slowdown_rate=self.slowdown_rate,
            slowdown_factor=self.slowdown_factor,
            network_rate=self.network_rate,
        )

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "crash_rate": self.crash_rate,
            "slowdown_rate": self.slowdown_rate,
            "network_rate": self.network_rate,
            "slowdown_factor": self.slowdown_factor,
            "horizon": self.horizon,
            "seed": self.seed,
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "FaultSpec":
        if not isinstance(payload, Mapping):
            raise WorkloadFormatError("'fault_rates' must be an object")
        known = {
            "crash_rate", "slowdown_rate", "network_rate",
            "slowdown_factor", "horizon", "seed",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise WorkloadFormatError(f"unknown fault_rates fields {unknown}")
        try:
            return cls(**dict(payload))
        except TypeError as exc:
            raise WorkloadFormatError(f"malformed fault_rates: {exc}") from exc


@dataclass(frozen=True)
class JobRequest:
    """One tenant's job: what to run, when it arrives, how urgent it is.

    Attributes
    ----------
    job_id:
        Unique identifier within the workload.
    app:
        Registered application name.
    graph:
        Input graph spec.
    submit_s:
        Arrival time on the simulated clock.
    priority:
        Larger = more important.  Scheduling pops the highest priority
        first; shedding degrades the lowest priorities first.
    deadline_s:
        Seconds after submission by which the job must *finish*; ``None``
        means no deadline.
    partitioner:
        Partitioning algorithm name (default ``hybrid``).
    faults:
        Optional explicit fault schedule (replayed as-is every attempt).
    fault_rates:
        Optional seeded fault rates (a fresh schedule per attempt).
        Mutually exclusive with ``faults``.
    app_args:
        Extra application constructor arguments (e.g. a superstep budget).
    """

    job_id: str
    app: str
    graph: GraphSpec
    submit_s: float = 0.0
    priority: int = 0
    deadline_s: Optional[float] = None
    partitioner: str = "hybrid"
    faults: Optional[FaultSchedule] = None
    fault_rates: Optional[FaultSpec] = None
    app_args: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.job_id:
            raise WorkloadFormatError("job_id must be a non-empty string")
        if self.submit_s < 0.0:
            raise WorkloadFormatError(
                f"submit_s must be >= 0, got {self.submit_s}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0.0:
            raise WorkloadFormatError(
                f"deadline_s must be > 0 seconds, got {self.deadline_s}"
            )
        if self.faults is not None and self.fault_rates is not None:
            raise WorkloadFormatError(
                "give 'faults' (explicit schedule) or 'fault_rates' "
                "(seeded rates), not both"
            )
        if self.graph.mutations is not None:
            if self.fault_rates is not None:
                raise WorkloadFormatError(
                    "jobs with graph 'mutations' cannot carry "
                    "'fault_rates': seeded rates re-draw a fresh schedule "
                    "per attempt, which does not compose with exactly-once "
                    "mid-stream resume; pin an explicit crash-only "
                    "'faults' schedule instead"
                )
            if self.faults is not None and (
                self.faults.slowdowns or self.faults.network_faults
            ):
                raise WorkloadFormatError(
                    "jobs with graph 'mutations' accept crash faults "
                    "only; slowdown/network faults need the "
                    "per-superstep pricing walk of the static resilient "
                    "runtime"
                )

    @property
    def absolute_deadline_s(self) -> Optional[float]:
        """Deadline on the simulated clock (``None`` = no deadline)."""
        if self.deadline_s is None:
            return None
        return self.submit_s + self.deadline_s

    def schedule_for(self, num_machines: int, attempt: int) -> Optional[FaultSchedule]:
        """Fault schedule for one run attempt, or ``None`` for fault-free."""
        if self.faults is not None:
            return self.faults
        if self.fault_rates is not None and not self.fault_rates.is_empty:
            return self.fault_rates.schedule_for(num_machines, attempt)
        return None

    def to_jsonable(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "job_id": self.job_id,
            "app": self.app,
            "graph": self.graph.to_jsonable(),
            "submit_s": self.submit_s,
            "priority": self.priority,
            "partitioner": self.partitioner,
        }
        if self.deadline_s is not None:
            payload["deadline_s"] = self.deadline_s
        if self.faults is not None:
            payload["faults"] = self.faults.to_jsonable()
        if self.fault_rates is not None:
            payload["fault_rates"] = self.fault_rates.to_jsonable()
        if self.app_args:
            payload["app_args"] = {
                str(k): v for k, v in sorted(self.app_args.items())
            }
        return payload

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "JobRequest":
        if not isinstance(payload, Mapping):
            raise WorkloadFormatError("job record must be an object")
        known = {
            "job_id", "app", "graph", "submit_s", "priority", "deadline_s",
            "partitioner", "faults", "fault_rates", "app_args",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise WorkloadFormatError(f"unknown job fields {unknown}")
        for required in ("job_id", "app", "graph"):
            if required not in payload:
                raise WorkloadFormatError(f"missing required field {required!r}")
        for name in ("job_id", "app", "partitioner"):
            if name in payload and not isinstance(payload[name], str):
                raise WorkloadFormatError(
                    f"{name!r} must be a string, got {payload[name]!r}"
                )
        if payload["app"] not in app_names():
            raise WorkloadFormatError(
                f"unknown app {payload['app']!r}; "
                f"available: {sorted(app_names())}"
            )
        partitioner = payload.get("partitioner", "hybrid")
        if partitioner not in PARTITIONERS:
            raise WorkloadFormatError(
                f"unknown partitioner {partitioner!r}; "
                f"available: {sorted(PARTITIONERS)}"
            )
        faults = None
        if "faults" in payload:
            faults = FaultSchedule.from_jsonable(payload["faults"])
        fault_rates = None
        if "fault_rates" in payload:
            fault_rates = FaultSpec.from_jsonable(payload["fault_rates"])
        app_args = payload.get("app_args", {})
        if not isinstance(app_args, Mapping):
            raise WorkloadFormatError("'app_args' must be an object")
        try:
            return cls(
                job_id=payload["job_id"],
                app=payload["app"],
                graph=GraphSpec.from_jsonable(payload["graph"]),
                submit_s=float(payload.get("submit_s", 0.0)),
                priority=int(payload.get("priority", 0)),
                deadline_s=(
                    float(payload["deadline_s"])
                    if payload.get("deadline_s") is not None
                    else None
                ),
                partitioner=partitioner,
                faults=faults,
                fault_rates=fault_rates,
                app_args=dict(app_args),
            )
        except (TypeError, ValueError) as exc:
            raise WorkloadFormatError(f"malformed job record: {exc}") from exc


@dataclass(frozen=True)
class JobRecord:
    """The service's verdict on one submitted job.

    Accounting contract: ``charged_seconds``/``charged_energy_joules`` are
    what the tenant pays — the full priced run when it completes, the
    pro-rated share up to the deadline when it is cancelled mid-run, and
    zero when the job never ran (rejection, pre-run cancellation, failed
    attempts whose pricing walk aborted).  Service-level totals are sums
    of these fields, which is what the conservation invariant checks.
    """

    job_id: str
    app: str
    status: str
    priority: int
    submit_s: float
    start_s: Optional[float] = None
    end_s: Optional[float] = None
    charged_seconds: float = 0.0
    charged_energy_joules: float = 0.0
    attempts: int = 0
    retries_backoff_s: float = 0.0
    degraded: bool = False
    supersteps: int = 0
    crashes: int = 0
    rebalanced: bool = False
    reason: str = ""

    def __post_init__(self) -> None:
        if self.status not in JOB_STATUSES:
            raise WorkloadFormatError(
                f"unknown job status {self.status!r}; expected one of "
                f"{JOB_STATUSES}"
            )

    @property
    def wait_s(self) -> Optional[float]:
        """Queueing delay between submission and start (``None`` = never ran)."""
        if self.start_s is None:
            return None
        return self.start_s - self.submit_s

    @property
    def latency_s(self) -> Optional[float]:
        """Submission-to-finish latency (``None`` = never finished)."""
        if self.end_s is None:
            return None
        return self.end_s - self.submit_s

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "app": self.app,
            "status": self.status,
            "priority": self.priority,
            "submit_s": self.submit_s,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "charged_seconds": self.charged_seconds,
            "charged_energy_joules": self.charged_energy_joules,
            "attempts": self.attempts,
            "retries_backoff_s": self.retries_backoff_s,
            "degraded": self.degraded,
            "supersteps": self.supersteps,
            "crashes": self.crashes,
            "rebalanced": self.rebalanced,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class Workload:
    """A replayable stream of job requests plus the service seed.

    ``shard_faults`` (format v2) optionally embeds a federation
    shard-fault schedule, so one workload file pins the *entire* chaos
    replay — arrivals, per-job faults and shard outages — byte for byte.
    :meth:`FederationService.run_workload
    <repro.federation.federation.FederationService.run_workload>` uses it
    unless an explicit schedule is passed.  Single-service mode (``repro
    serve`` without ``--shards``, one-cluster ``warm_store``) passes an
    empty schedule, so there the embedded one is ignored.
    """

    jobs: Tuple[JobRequest, ...] = ()
    seed: int = 0
    shard_faults: Optional[ShardFaultSchedule] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))
        seen: Dict[str, int] = {}
        for i, job in enumerate(self.jobs):
            if job.job_id in seen:
                raise WorkloadFormatError(
                    f"jobs[{i}]: duplicate job_id {job.job_id!r} "
                    f"(first used by jobs[{seen[job.job_id]}])"
                )
            seen[job.job_id] = i

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    def sorted_jobs(self) -> Tuple[JobRequest, ...]:
        """Arrival order: by submit time, job id breaking ties."""
        return tuple(
            sorted(self.jobs, key=lambda j: (j.submit_s, j.job_id))
        )

    def to_json(self) -> str:
        payload: Dict[str, Any] = {
            "format_version": WORKLOAD_FORMAT_VERSION,
            "seed": self.seed,
            "jobs": [job.to_jsonable() for job in self.jobs],
        }
        if self.shard_faults is not None:
            payload["shard_faults"] = self.shard_faults.to_jsonable()
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        try:
            payload = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an over-long integer
            raise WorkloadFormatError(f"malformed workload JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise WorkloadFormatError("workload JSON must be an object")
        version = payload.get("format_version", WORKLOAD_FORMAT_VERSION)
        if version not in SUPPORTED_FORMAT_VERSIONS:
            raise WorkloadFormatError(
                f"workload format {version!r} is not supported "
                f"(expected one of {list(SUPPORTED_FORMAT_VERSIONS)})"
            )
        shard_faults: Optional[ShardFaultSchedule] = None
        if payload.get("shard_faults") is not None:
            if version < 2:
                raise WorkloadFormatError(
                    "'shard_faults' requires format_version >= 2"
                )
            try:
                shard_faults = ShardFaultSchedule.from_jsonable(
                    payload["shard_faults"]
                )
            except (FaultError, TypeError, ValueError, KeyError) as exc:
                raise WorkloadFormatError(
                    f"malformed shard_faults: {exc}"
                ) from exc
        raw_jobs = payload.get("jobs", [])
        if not isinstance(raw_jobs, list):
            raise WorkloadFormatError("'jobs' must be a list")
        jobs = []
        for i, raw in enumerate(raw_jobs):
            try:
                job = JobRequest.from_jsonable(raw)
                if job.graph.mutations is not None and version < 3:
                    raise WorkloadFormatError(
                        "graph 'mutations' requires format_version >= 3"
                    )
                if (
                    job.graph.mutations is not None
                    and job.faults is not None
                    and version < 4
                ):
                    raise WorkloadFormatError(
                        "composing graph 'mutations' with 'faults' "
                        "requires format_version >= 4"
                    )
                jobs.append(job)
            except WorkloadFormatError as exc:
                raise WorkloadFormatError(f"jobs[{i}]: {exc}") from exc
        try:
            seed = int(payload.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise WorkloadFormatError(f"malformed seed: {exc}") from exc
        return cls(jobs=tuple(jobs), seed=seed, shard_faults=shard_faults)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "Workload":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
