"""End-to-end graph processing system (the Fig. 7b flow, framework side).

:class:`GraphProcessingSystem` ties everything together the way the
modified PowerGraph does: load graph → pick weights → partition → finalize
(build the distributed graph) → execute → report.  The CCR lookup step of
Fig. 7b lives one level up, in :mod:`repro.core.flow`, which selects the
weight vector before calling into here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.engine.distributed_graph import DistributedGraph
from repro.engine.report import (
    ExecutionReport,
    enable_price_memo,
    simulate_execution,
)
from repro.engine.trace import ExecutionTrace
from repro.engine.vertex_program import GraphApplication
from repro.errors import EngineError
from repro.graph.digraph import DiGraph
from repro.kernels.cache import (
    app_key,
    dgraph_cache,
    graph_fingerprint,
    trace_cache,
)
from repro.partition.base import Partitioner, PartitionResult

__all__ = ["RunOutcome", "GraphProcessingSystem", "execute_partition"]


def execute_partition(
    app: GraphApplication, partition: PartitionResult
) -> Tuple[DistributedGraph, ExecutionTrace]:
    """Lay out a partition and execute an application on it, once.

    The layout is a pure function of (graph, assignment, machine count)
    — it is always built with the default master seed — and the trace a
    pure function of that layout and the app's configuration, so both
    are memoised by content: identical partitions share one cached
    layout, and each distinct (app, partition) pair runs the engine
    once per process.  Traces are machine-agnostic and pricing never
    mutates them, so a hit returns exactly the bytes a miss would.  A
    cached trace also carries a price memo, so each distinct cluster
    prices it once (:func:`~repro.engine.report.enable_price_memo`).
    """
    layout_key = (
        graph_fingerprint(partition.graph),
        hashlib.sha256(partition.assignment.tobytes()).hexdigest(),
        partition.num_machines,
    )
    dgraph_key = ("dgraph",) + layout_key
    dgraph = dgraph_cache.get(dgraph_key)
    if dgraph is None:
        dgraph = DistributedGraph(partition)
        dgraph_cache.put(dgraph_key, dgraph)
    akey = app_key(app)
    if akey is None:
        return dgraph, app.execute(dgraph)
    trace_key = ("trace", akey) + layout_key
    trace = trace_cache.get(trace_key)
    if trace is None:
        trace = app.execute(dgraph)
        enable_price_memo(trace)
        trace_cache.put(trace_key, trace)
    return dgraph, trace


@dataclass(frozen=True)
class RunOutcome:
    """Everything produced by one end-to-end run."""

    partition: PartitionResult
    dgraph: DistributedGraph
    trace: ExecutionTrace
    report: ExecutionReport


class GraphProcessingSystem:
    """Simulated distributed graph-processing framework.

    Parameters
    ----------
    cluster:
        The machines the framework runs on; partition count equals machine
        count, slot ``i`` of every partitioning lands on ``machines[i]``.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    def run(
        self,
        app: GraphApplication,
        graph: DiGraph,
        partitioner: Partitioner,
        weights=None,
    ) -> RunOutcome:
        """Partition, execute and price one application run.

        Parameters
        ----------
        app:
            The application to execute.
        graph:
            Input graph.
        partitioner:
            Partitioning algorithm instance.
        weights:
            Per-machine weight vector (``None`` = uniform; thread-count and
            CCR vectors plug in here).
        """
        partition = partitioner.partition(
            graph, self.cluster.num_machines, weights=weights
        )
        dgraph, trace = execute_partition(app, partition)
        report = simulate_execution(trace, self.cluster)
        return RunOutcome(
            partition=partition, dgraph=dgraph, trace=trace, report=report
        )

    def run_single_machine(
        self, app: GraphApplication, graph: DiGraph, machine_index: int = 0
    ) -> ExecutionTrace:
        """Execute on one machine only (the profiling configuration).

        Profiling (Fig. 7a) measures "each machine's graph computation
        power ... without communication interference": the whole graph is
        one partition, so no mirrors exist and the trace contains pure
        compute.  The returned trace can then be priced on any machine
        spec via :func:`repro.engine.report.simulate_execution`.
        """
        if not 0 <= machine_index < self.cluster.num_machines:
            raise EngineError(
                f"machine_index {machine_index} out of range "
                f"[0, {self.cluster.num_machines})"
            )
        from repro.partition.base import PartitionResult

        assignment = np.zeros(graph.num_edges, dtype=np.int32)
        single = PartitionResult(
            graph=graph,
            assignment=assignment,
            num_machines=1,
            algorithm="single",
            weights=np.array([1.0]),
        )
        return execute_partition(app, single)[1]
