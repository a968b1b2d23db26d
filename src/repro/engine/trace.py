"""Execution traces: what each machine did, superstep by superstep.

A trace is the engine's only output besides the algorithm result.  It is
*machine-agnostic*: it records counted work (as
:class:`~repro.cluster.perfmodel.WorkProfile`) and communication volume,
and :mod:`repro.engine.report` prices it on a concrete cluster.  Pricing a
trace is O(supersteps × machines), which is what makes re-evaluating the
same execution on many machine types (CCR profiling, cost studies) cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.cluster.perfmodel import WorkProfile
from repro.errors import EngineError
from repro.utils.canonical import canonical_json, jsonable

__all__ = ["MachinePhase", "SuperstepTrace", "ExecutionTrace"]

#: Bump when the serialized layout changes; readers reject other versions.
TRACE_FORMAT_VERSION = 1

#: Where a cached trace keeps its price memo, in its ``__dict__`` (see
#: :func:`repro.engine.report.enable_price_memo`).
PRICE_MEMO_KEY = "_price_memo"


@dataclass(frozen=True)
class MachinePhase:
    """One machine's activity during one superstep."""

    work: WorkProfile
    comm_bytes: float = 0.0

    def __post_init__(self):
        if self.comm_bytes < 0:
            raise EngineError("comm_bytes must be >= 0")


@dataclass(frozen=True)
class SuperstepTrace:
    """One barrier-to-barrier superstep across the whole cluster."""

    phases: Sequence[MachinePhase]
    sync_rounds: int = 2
    label: str = ""

    def __post_init__(self):
        if not self.phases:
            raise EngineError("a superstep needs at least one machine phase")
        if self.sync_rounds < 0:
            raise EngineError("sync_rounds must be >= 0")
        object.__setattr__(self, "phases", tuple(self.phases))

    @property
    def num_machines(self) -> int:
        return len(self.phases)


@dataclass
class ExecutionTrace:
    """Full record of one application execution on a distributed graph.

    Attributes
    ----------
    app:
        Application name.
    num_machines:
        Cluster width the trace was captured on.
    supersteps:
        Ordered superstep records.
    result:
        Application-specific outputs (ranks, labels, counts, ...); carried
        along so correctness checks and reports share one object.
    """

    app: str
    num_machines: int
    supersteps: List[SuperstepTrace] = field(default_factory=list)
    result: Dict[str, Any] = field(default_factory=dict)

    def append(self, step: SuperstepTrace) -> None:
        if step.num_machines != self.num_machines:
            raise EngineError(
                f"superstep spans {step.num_machines} machines, trace has "
                f"{self.num_machines}"
            )
        self.supersteps.append(step)
        # Prices memoised for the shorter trace no longer hold.
        self.__dict__.pop(PRICE_MEMO_KEY, None)

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    def total_work(self) -> List[WorkProfile]:
        """Per-machine aggregate work over all supersteps."""
        totals = [WorkProfile() for _ in range(self.num_machines)]
        for step in self.supersteps:
            totals = [t + p.work for t, p in zip(totals, step.phases)]
        return totals

    def total_edge_flops(self) -> float:
        """Total parallel compute across machines and supersteps."""
        return float(
            sum(p.work.flops for s in self.supersteps for p in s.phases)
        )

    def total_comm_bytes(self) -> float:
        return float(
            sum(p.comm_bytes for s in self.supersteps for p in s.phases)
        )

    # ------------------------------------------------------------------ #
    # Serialization (golden-trace fixtures, run artifacts)
    # ------------------------------------------------------------------ #

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-dict form of the full trace, losslessly round-trippable.

        Floats serialize through Python's shortest-roundtrip ``repr``, so
        equal traces produce byte-identical canonical JSON — the property
        the golden-trace regression tests and the observability inertness
        test rely on.  Result arrays come back as lists.
        """
        return {
            "format_version": TRACE_FORMAT_VERSION,
            "app": self.app,
            "num_machines": self.num_machines,
            "supersteps": [
                {
                    "label": step.label,
                    "sync_rounds": step.sync_rounds,
                    "phases": [
                        {
                            "work": {
                                "flops": p.work.flops,
                                "serial_flops": p.work.serial_flops,
                                "streaming_bytes": p.work.streaming_bytes,
                                "cacheable_bytes": p.work.cacheable_bytes,
                                "working_set_mb": p.work.working_set_mb,
                            },
                            "comm_bytes": p.comm_bytes,
                        }
                        for p in step.phases
                    ],
                }
                for step in self.supersteps
            ],
            "result": jsonable(self.result),
        }

    def canonical_json(self) -> str:
        """Deterministic single-line JSON (sorted keys, fixed separators)."""
        return canonical_json(self.to_jsonable())

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "ExecutionTrace":
        """Rebuild a trace written by :meth:`to_jsonable`.

        Result arrays stay plain lists (the engine never re-consumes a
        deserialized result; reports copy it verbatim).
        """
        version = data.get("format_version")
        if version != TRACE_FORMAT_VERSION:
            raise EngineError(
                f"trace format {version!r} is not supported "
                f"(expected {TRACE_FORMAT_VERSION})"
            )
        trace = cls(
            app=data["app"],
            num_machines=int(data["num_machines"]),
            result=dict(data.get("result", {})),
        )
        for step in data.get("supersteps", []):
            trace.append(
                SuperstepTrace(
                    phases=[
                        MachinePhase(
                            work=WorkProfile(**p["work"]),
                            comm_bytes=p["comm_bytes"],
                        )
                        for p in step["phases"]
                    ],
                    sync_rounds=int(step.get("sync_rounds", 2)),
                    label=step.get("label", ""),
                )
            )
        return trace
