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
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.engine.distributed_graph import DistributedGraph
from repro.engine.trace import ExecutionTrace, MachinePhase, SuperstepTrace
from repro.engine.vertex_program import SyncVertexProgram
from repro.errors import ConvergenceError, EngineError
from repro.kernels import engine as kernels_engine
from repro.obs import context as obs

__all__ = ["SyncEngine"]

_ACC_INIT = {"sum": 0.0, "min": np.inf}


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
        if program.accumulator not in _ACC_INIT:
            raise EngineError(
                f"unsupported accumulator {program.accumulator!r}; "
                f"expected one of {sorted(_ACC_INIT)}"
            )
        graph = dgraph.graph
        n = graph.num_vertices
        m = dgraph.num_machines

        values = np.asarray(program.initial_values(graph), dtype=np.float64)
        if values.shape != (n,):
            raise EngineError(
                f"initial_values must have shape ({n},), got {values.shape}"
            )
        active = np.asarray(program.initial_active(graph), dtype=bool)

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

        superstep = 0
        while np.any(active) and superstep < program.max_supersteps:
            step_span = obs.span(
                "superstep", index=superstep, app=program.name
            )
            acc = np.full(n, _ACC_INIT[program.accumulator], dtype=np.float64)
            has_message = np.zeros(n, dtype=bool)

            gather_span = obs.span("gather")
            edge_ops = kernels_engine.gather_vectorized(
                program, dgraph, values, active, acc, has_message
            )
            if obs.is_enabled():
                gather_span.set(
                    edge_ops=edge_ops.tolist(),
                    active_vertices=int(np.count_nonzero(active)),
                )
            gather_span.close()

            apply_span = obs.span("apply")
            new_values, new_active = program.apply(graph, values, acc, has_message)
            new_values = np.asarray(new_values, dtype=np.float64)
            new_active = np.asarray(new_active, dtype=bool)
            if new_values.shape != (n,) or new_active.shape != (n,):
                raise EngineError("apply must return per-vertex arrays")
            apply_span.close()

            # Accounting: gather edge ops per machine; apply vertex ops on
            # each vertex's master; mirror sync for vertices that changed
            # hands this superstep (the applied frontier).
            sync_span = obs.span("sync")
            applied = has_message | active
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

            values, active = new_values, new_active
            superstep += 1

        converged = not bool(np.any(active))
        if obs.is_enabled():
            run_span.set(supersteps=superstep, converged=converged)
        run_span.close()
        if not converged and self.strict:
            raise ConvergenceError(
                f"{program.name} did not converge within "
                f"{program.max_supersteps} supersteps"
            )
        trace.result = program.finalize(graph, values)
        trace.result["supersteps"] = superstep
        trace.result["converged"] = converged
        return trace

    @staticmethod
    def _gather(
        program: SyncVertexProgram,
        graph,
        values: np.ndarray,
        sources: np.ndarray,
        targets: np.ndarray,
        active: np.ndarray,
        acc: np.ndarray,
        has_message: np.ndarray,
    ) -> int:
        """Aggregate messages for one edge direction; returns ops counted.

        The per-machine fallback :func:`repro.kernels.engine.gather_vectorized`
        uses for programs whose messages cannot be hoisted.
        """
        if sources.size == 0:
            return 0
        live = active[sources]
        if not np.any(live):
            return 0
        s = sources[live]
        t = targets[live]
        msgs = program.messages(graph, values, s)
        if program.accumulator == "sum":
            # bincount is an order of magnitude faster than np.add.at for
            # dense scatter-sums, and the accumulator array is dense here.
            acc += np.bincount(t, weights=msgs, minlength=acc.size)
        else:
            np.minimum.at(acc, t, msgs)
        has_message[t] = True
        return int(s.size)
