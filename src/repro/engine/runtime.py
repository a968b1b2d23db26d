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
import numpy as np

from repro.cluster.cluster import Cluster
from repro.engine.distributed_graph import DistributedGraph
from repro.engine.report import ExecutionReport, simulate_execution
from repro.engine.trace import ExecutionTrace
from repro.engine.vertex_program import GraphApplication
from repro.errors import EngineError
from repro.graph.digraph import DiGraph
from repro.kernels.cache import dgraph_cache, graph_fingerprint
from repro.obs import context as obs
from repro.partition.base import Partitioner, PartitionResult

__all__ = ["RunOutcome", "GraphProcessingSystem"]


def _materialize_dgraph(partition: PartitionResult) -> DistributedGraph:
    """Build (or fetch) the distributed layout for a partition.

    The layout is a pure function of (graph, assignment, machine count,
    master seed) and the engines never mutate it, so identical partitions
    share one cached instance.  Observed runs bypass the cache and
    materialise for real.
    """
    if obs.is_enabled():
        return DistributedGraph(partition)
    key = (
        "dgraph",
        graph_fingerprint(partition.graph),
        hashlib.sha256(partition.assignment.tobytes()).hexdigest(),
        partition.num_machines,
    )
    cached = dgraph_cache.get(key)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    dgraph = DistributedGraph(partition)
    dgraph_cache.put(key, dgraph)
    return dgraph


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
        dgraph = _materialize_dgraph(partition)
        trace = app.execute(dgraph)
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
        return app.execute(_materialize_dgraph(single))
