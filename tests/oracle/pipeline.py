"""Whole-pipeline reference: partition, lay out and execute on the oracles.

The differential tests parametrize over :data:`IMPLEMENTATIONS`:
``"vectorized"`` runs production end to end (with whatever caches happen
to be warm); ``"scalar"`` runs the reference loops of this package with
no cache anywhere — Ginger through :class:`ReferenceGinger`, the sync
programs through the per-machine superstep loop, Coloring through the
per-round replay, Triangle Count through an uncached per-machine count.
"""

from __future__ import annotations

import numpy as np

from repro.apps.coloring import GraphColoring
from repro.apps.registry import make_app
from repro.apps.triangle_count import TriangleCount, undirected_simple_edges
from repro.engine.distributed_graph import DistributedGraph
from repro.engine.trace import ExecutionTrace, MachinePhase, SuperstepTrace
from repro.partition import make_partitioner
from repro.partition.base import PartitionResult, normalize_weights
from tests.oracle.coloring import reference_coloring_trace
from tests.oracle.engine import (
    reference_layout,
    reference_sync_bytes,
    reference_sync_run,
)
from tests.oracle.ginger import ReferenceGinger

__all__ = [
    "IMPLEMENTATIONS",
    "reference_execute",
    "reference_partitioner",
    "run_pipeline",
]

#: ``"scalar"``: the reference loops; ``"vectorized"``: production.
IMPLEMENTATIONS = ("scalar", "vectorized")


def reference_partitioner(name, seed=0):
    """The named partitioner, with Ginger swapped for its reference."""
    if name == "ginger":
        return ReferenceGinger(seed=seed)
    return make_partitioner(name, seed=seed)


def _reference_triangle_trace(app, dgraph):
    graph = dgraph.graph
    n = graph.num_vertices
    m = dgraph.num_machines
    su, sv = undirected_simple_edges(graph)
    deg = (np.bincount(su, minlength=n) + np.bincount(sv, minlength=n)).astype(
        np.float64
    )
    _, local_src, local_dst = reference_layout(dgraph.partition)
    comm = reference_sync_bytes(
        dgraph, np.ones(n, dtype=bool), app.cost.value_bytes
    )
    phases = []
    for i in range(m):
        ls, ld = local_src[i], local_dst[i]
        work = app.cost.work(
            edge_ops=float(np.sum(deg[ls] + deg[ld])) if ls.size else 0.0,
            vertex_ops=float(np.count_nonzero(dgraph.master == i)),
            working_set_mb=float(dgraph.working_set_mb[i]),
        )
        phases.append(MachinePhase(work=work, comm_bytes=float(comm[i])))
    trace = ExecutionTrace(app=app.name, num_machines=m)
    trace.append(
        SuperstepTrace(
            phases=phases, sync_rounds=app.cost.sync_rounds, label="count"
        )
    )
    trace.result = {"triangles": app.count_triangles(graph)}
    return trace


def reference_execute(app, dgraph):
    """``app.execute(dgraph)`` on the reference loops, with no memo."""
    if isinstance(app, GraphColoring):
        return reference_coloring_trace(app, dgraph)
    if isinstance(app, TriangleCount):
        return _reference_triangle_trace(app, dgraph)
    return reference_sync_run(app, dgraph)


def run_pipeline(
    implementation, app_name, partitioner_name, graph, num_machines,
    weights=None, seed=3,
):
    """Partition + lay out + execute; ``(PartitionResult, ExecutionTrace)``."""
    if implementation == "vectorized":
        part = make_partitioner(partitioner_name, seed=seed)
        res = part.partition(graph, num_machines, weights)
        return res, make_app(app_name).execute(DistributedGraph(res))
    assert implementation == "scalar", implementation
    # Straight to ``_assign``: the public ``partition`` consults the cache.
    w = normalize_weights(weights, num_machines)
    res = PartitionResult(
        graph=graph,
        assignment=reference_partitioner(partitioner_name, seed)._assign(
            graph, num_machines, w
        ),
        num_machines=num_machines,
        algorithm=partitioner_name,
        weights=w,
    )
    return res, reference_execute(make_app(app_name), DistributedGraph(res))
