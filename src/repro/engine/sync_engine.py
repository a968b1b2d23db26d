"""Synchronous gather-apply engine.

Executes a :class:`~repro.engine.vertex_program.SyncVertexProgram` on a
:class:`~repro.engine.distributed_graph.DistributedGraph` with PowerGraph's
synchronous semantics:

1. **Gather** — every machine computes messages over its *local* edges
   whose source endpoint is active, and aggregates them into a local
   partial per target vertex (mirror-side pre-aggregation).
2. **Sync** — partials flow mirror→master; because the accumulator is
   commutative and associative, summing/min-ing the per-machine partials
   is exactly the distributed result.
3. **Apply** — masters compute new values; updated values broadcast back
   to mirrors.
4. **Barrier** — the superstep's wall time is the slowest machine.

The algorithm executes *for real* (the values are the actual PageRank
ranks / component labels, verified against NetworkX in the tests); the
cluster only enters later, when the recorded trace is priced by
:func:`repro.engine.report.simulate_execution`.

A ``sum`` program gathers on the layout superstep by superstep
(:func:`repro.kernels.engine.gather_sum`), into the one workspace that
the superstep loop keeps for the run.  A ``min`` program's values
and frontiers do not depend on the partition, so it runs once per graph
(:func:`repro.kernels.engine.frontier_log`) and each layout is accounted
from that log; the emitted trace and spans are the same either way.
Only programs that declare ``messages_elementwise`` are accepted.
"""

from __future__ import annotations

import functools
from typing import List, Union

import numpy as np

from repro.engine.distributed_graph import DistributedGraph
from repro.engine.trace import ExecutionTrace, MachinePhase, SuperstepTrace
from repro.engine.vertex_program import SyncVertexProgram
from repro.errors import ConvergenceError, EngineError
from repro.kernels import engine as kernels_engine
from repro.kernels.engine import FrontierLog, SuperstepLoop
from repro.obs import context as obs

__all__ = ["SyncEngine"]


class SyncEngine:
    """Drives synchronous supersteps and records the execution trace.

    Parameters
    ----------
    strict:
        When true, hitting ``max_supersteps`` with vertices still active
        raises :class:`~repro.errors.ConvergenceError` instead of quietly
        returning a ``converged: False`` trace.
    """

    def __init__(self, strict: bool = False):
        self.strict = strict

    def run(
        self, program: SyncVertexProgram, dgraph: DistributedGraph
    ) -> ExecutionTrace:
        if program.accumulator not in ("sum", "min"):
            raise EngineError(
                f"unsupported accumulator {program.accumulator!r}; "
                f"expected one of ['min', 'sum']"
            )
        if not program.messages_elementwise:
            raise EngineError(
                f"{program.name}: messages must be declared elementwise "
                "(messages_elementwise = True)"
            )
        if program.accumulator == "sum" and program.undirected:
            raise EngineError(
                f"{program.name}: a 'sum' program must be directed"
            )
        graph = dgraph.graph
        n = graph.num_vertices
        m = dgraph.num_machines

        # A min program's frontier does not depend on the partition: run
        # it once per graph and account this layout from the log.
        outcome: Union[FrontierLog, SuperstepLoop]
        if program.accumulator == "min":
            outcome = kernels_engine.frontier_log(program, graph)
            steps = kernels_engine.frontier_supersteps(
                outcome, dgraph, program.undirected
            )
        else:
            outcome = SuperstepLoop(
                program,
                graph,
                functools.partial(kernels_engine.gather_sum, program, dgraph),
            )
            steps = iter(outcome)

        trace = ExecutionTrace(app=program.name, num_machines=m)
        # Reuse sync accounting while the applied frontier is unchanged
        # (PageRank's all-or-nothing frontier repeats every superstep).
        prev_applied = None
        prev_vertex_ops = None
        prev_comm = None

        run_span = obs.span(
            "engine/run",
            app=program.name,
            machines=m,
            vertices=n,
            edges=graph.num_edges,
        )
        if obs.is_enabled():
            obs.gauge_set(
                "engine.replication_factor",
                dgraph.replication_factor,
                app=program.name,
            )

        # Spans run on the simulated clock, so they record the phase
        # sequence of each superstep, not where its arithmetic happens.
        for superstep, (active, edge_ops, applied) in enumerate(steps):
            step_span = obs.span(
                "superstep", index=superstep, app=program.name
            )
            gather_span = obs.span("gather")
            if obs.is_enabled():
                gather_span.set(
                    edge_ops=edge_ops.tolist(),
                    active_vertices=int(np.count_nonzero(active)),
                )
            gather_span.close()

            obs.span("apply").close()

            # Accounting: gather edge ops per machine; apply vertex ops on
            # each vertex's master; mirror sync for vertices that changed
            # hands this superstep (the applied frontier).
            sync_span = obs.span("sync")
            if prev_applied is not None and np.array_equal(applied, prev_applied):
                vertex_ops, comm = prev_vertex_ops, prev_comm
            else:
                vertex_ops = kernels_engine.vertex_ops_vectorized(dgraph, applied)
                comm = dgraph.sync_bytes(applied, program.cost.value_bytes)
                prev_applied = applied
                prev_vertex_ops, prev_comm = vertex_ops, comm
            if obs.is_enabled():
                sync_span.set(
                    comm_bytes=comm.tolist(),
                    vertex_ops=vertex_ops.tolist(),
                )
            sync_span.close()
            phases: List[MachinePhase] = []
            for i in range(m):
                work = program.cost.work(
                    edge_ops=float(edge_ops[i]),
                    vertex_ops=float(vertex_ops[i]),
                    working_set_mb=float(dgraph.working_set_mb[i]),
                )
                phases.append(MachinePhase(work=work, comm_bytes=float(comm[i])))
            trace.append(
                SuperstepTrace(
                    phases=phases,
                    sync_rounds=program.cost.sync_rounds,
                    label=f"superstep {superstep}",
                )
            )

            if obs.is_enabled():
                obs.counter_add(
                    "engine.edge_ops", float(edge_ops.sum()), app=program.name
                )
                obs.counter_add(
                    "engine.vertex_ops",
                    float(vertex_ops.sum()),
                    app=program.name,
                )
                obs.counter_add(
                    "engine.sync_bytes", float(comm.sum()), app=program.name
                )
                obs.counter_add("engine.supersteps", 1.0, app=program.name)
            step_span.close()

        supersteps = trace.num_supersteps
        converged = outcome.converged
        if obs.is_enabled():
            run_span.set(supersteps=supersteps, converged=converged)
        run_span.close()
        if not converged and self.strict:
            raise ConvergenceError(
                f"{program.name} did not converge within "
                f"{program.max_supersteps} supersteps"
            )
        trace.result = program.finalize(graph, outcome.values.copy())
        trace.result["supersteps"] = supersteps
        trace.result["converged"] = converged
        return trace

