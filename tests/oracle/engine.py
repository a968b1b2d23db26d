"""Per-machine loops: the references for the layout and the engine.

Production builds the distributed layout with a counting sort and
zero-copy views, counts mirror-sync traffic with a dense matvec, hoists
``sum`` message computation across machines, and runs a ``min``
program once per graph before accounting each partition from its
frontier log (``repro.kernels``).  This module keeps the literal loops
those replaced — the stable ``argsort`` layout, the boolean row-sum sync
count and the per-machine gather/apply/sync superstep with its ``sum``
and ``min`` scatters — so the differential tests in
``tests/equivalence/`` can compare production against them byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.engine.trace import ExecutionTrace, MachinePhase, SuperstepTrace

__all__ = ["reference_layout", "reference_sync_bytes", "reference_sync_run"]

_ACC_INIT = {"sum": 0.0, "min": np.inf}


def reference_layout(partition):
    """``(edge_ids, local_src, local_dst)`` per machine, by stable argsort."""
    m = partition.num_machines
    src, dst = partition.graph.edges()
    order = np.argsort(partition.assignment, kind="stable")
    counts = np.bincount(partition.assignment, minlength=m)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    edge_ids = [order[bounds[i] : bounds[i + 1]] for i in range(m)]
    return (
        edge_ids,
        [src[ids] for ids in edge_ids],
        [dst[ids] for ids in edge_ids],
    )


def reference_sync_bytes(dgraph, active, value_bytes):
    """``DistributedGraph.sync_bytes`` as a boolean row-sum and scatter-adds."""
    replicated = active & (dgraph.replica_counts > 1)
    if not np.any(replicated):
        return np.zeros(dgraph.num_machines, dtype=np.float64)
    pres = dgraph.presence[replicated]  # (k, M)
    masters = dgraph.master[replicated]
    copies = dgraph.replica_counts[replicated]

    # Mirror legs per machine: replicas that are not the master.
    mirror_legs = pres.sum(axis=0).astype(np.float64)
    np.add.at(mirror_legs, masters, -1.0)  # master replica is local
    # Master legs per machine: one per remote mirror of each master.
    master_legs = np.zeros(dgraph.num_machines, dtype=np.float64)
    np.add.at(master_legs, masters, (copies - 1).astype(np.float64))
    return (mirror_legs + master_legs) * float(value_bytes)


def reference_sync_run(program, dgraph):
    """``program.execute(dgraph)`` for a sync program, machine by machine.

    Every superstep gathers each machine's local edges in turn (forward,
    then reverse for undirected programs), counts applied vertices per
    master machine, and recounts the sync traffic — no hoisting, no
    frontier reuse.
    """
    graph = dgraph.graph
    n = graph.num_vertices
    m = dgraph.num_machines
    _, local_src, local_dst = reference_layout(dgraph.partition)
    masters_per_machine = [np.nonzero(dgraph.master == i)[0] for i in range(m)]

    values = np.asarray(program.initial_values(graph), dtype=np.float64)
    active = np.asarray(program.initial_active(graph), dtype=bool)
    trace = ExecutionTrace(app=program.name, num_machines=m)
    superstep = 0
    while np.any(active) and superstep < program.max_supersteps:
        acc = np.full(n, _ACC_INIT[program.accumulator], dtype=np.float64)
        has_message = np.zeros(n, dtype=bool)
        edge_ops = np.zeros(m, dtype=np.float64)
        for i in range(m):
            directions = [(local_src[i], local_dst[i])]
            if program.undirected:
                directions.append((local_dst[i], local_src[i]))
            for sources, targets in directions:
                live = active[sources]
                s, t = sources[live], targets[live]
                if s.size == 0:
                    continue
                msgs = program.messages(graph, values, s)
                if program.accumulator == "sum":
                    acc += np.bincount(t, weights=msgs, minlength=n)
                else:
                    np.minimum.at(acc, t, msgs)
                has_message[t] = True
                edge_ops[i] += s.size
        new_values, new_active = program.apply(graph, values, acc, has_message)

        applied = has_message | active
        vertex_ops = np.array(
            [np.count_nonzero(applied[mst]) for mst in masters_per_machine],
            dtype=np.float64,
        )
        comm = reference_sync_bytes(dgraph, applied, program.cost.value_bytes)
        phases = [
            MachinePhase(
                work=program.cost.work(
                    edge_ops=float(edge_ops[i]),
                    vertex_ops=float(vertex_ops[i]),
                    working_set_mb=float(dgraph.working_set_mb[i]),
                ),
                comm_bytes=float(comm[i]),
            )
            for i in range(m)
        ]
        trace.append(
            SuperstepTrace(
                phases=phases,
                sync_rounds=program.cost.sync_rounds,
                label=f"superstep {superstep}",
            )
        )
        values = np.asarray(new_values, dtype=np.float64)
        active = np.asarray(new_active, dtype=bool)
        superstep += 1

    trace.result = program.finalize(graph, values)
    trace.result["supersteps"] = superstep
    trace.result["converged"] = not bool(np.any(active))
    return trace
