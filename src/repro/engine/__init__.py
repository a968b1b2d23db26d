"""Simulated PowerGraph-like distributed graph engine.

The engine executes real graph algorithms over a vertex-cut partitioned
graph with PowerGraph's master/mirror semantics, while *counting* the work
each machine performs.  Counted work is priced on machine specs by the
cluster performance model, yielding runtime and energy — the substitution
for the paper's physical testbed (see DESIGN.md).

Key pieces:

* :class:`DistributedGraph` -- partitioned graph with replica bookkeeping.
* :class:`SyncVertexProgram` / :class:`SyncEngine` -- synchronous
  gather-apply supersteps (PageRank, Connected Components).
* :class:`AppCostModel` -- per-application operation costs.
* :class:`ExecutionTrace` / :func:`simulate_execution` -- machine-agnostic
  capture, cluster-specific pricing.
* :class:`GraphProcessingSystem` -- the end-to-end Fig. 7b flow.
* :func:`simulate_resilient_execution` / :class:`ResilientRuntime` --
  fault-aware pricing and the crash/straggler-surviving control loop
  (see :mod:`repro.faults` for the fault models themselves).
"""

from repro.engine.accounting import AppCostModel
from repro.engine.distributed_graph import DistributedGraph
from repro.engine.trace import ExecutionTrace, MachinePhase, SuperstepTrace
from repro.engine.report import ExecutionReport, MachineReport, simulate_execution
from repro.engine.vertex_program import GraphApplication, SyncVertexProgram
from repro.engine.sync_engine import SyncEngine
from repro.engine.runtime import GraphProcessingSystem, RunOutcome
from repro.engine.resilient import (
    FaultRecord,
    ResilientExecutionReport,
    ResilientOutcome,
    ResilientRuntime,
    simulate_resilient_execution,
)

__all__ = [
    "AppCostModel",
    "DistributedGraph",
    "ExecutionTrace",
    "MachinePhase",
    "SuperstepTrace",
    "ExecutionReport",
    "MachineReport",
    "simulate_execution",
    "GraphApplication",
    "SyncVertexProgram",
    "SyncEngine",
    "GraphProcessingSystem",
    "RunOutcome",
    "FaultRecord",
    "ResilientExecutionReport",
    "ResilientOutcome",
    "ResilientRuntime",
    "simulate_resilient_execution",
]
