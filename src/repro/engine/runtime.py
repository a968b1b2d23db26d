"""End-to-end graph processing system (the Fig. 7b flow, framework side).

:class:`GraphProcessingSystem` ties everything together the way the
modified PowerGraph does: load graph → pick weights → partition → finalize
(build the distributed graph) → execute → report.  The CCR lookup step of
Fig. 7b lives one level up, in :mod:`repro.core.flow`, which selects the
weight vector before calling into here.

A fault schedule is one more setting of the same system: every run is
priced by :func:`~repro.engine.resilient.simulate_resilient_execution`,
which is the static simulator when there is nothing to inject.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.engine.distributed_graph import DistributedGraph
from repro.engine.report import ExecutionReport, enable_price_memo
# Kept importable here: the benchmark tracer wraps ``simulate_execution``
# in every module that holds it, and its own test checks this module.
from repro.engine.report import simulate_execution  # noqa: F401
from repro.engine.resilient import simulate_resilient_execution
from repro.engine.trace import ExecutionTrace
from repro.engine.vertex_program import GraphApplication
from repro.faults.checkpoint import CheckpointPolicy, RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.faults.supervisor import Supervisor
from repro.graph.digraph import DiGraph
from repro.kernels.cache import (
    app_key,
    dgraph_cache,
    graph_fingerprint,
    trace_cache,
)
from repro.obs import context as obs
from repro.partition.base import Partitioner, PartitionResult
from repro.partition.weights import uniform_weights

__all__ = [
    "LayoutKey",
    "RunOutcome",
    "GraphProcessingSystem",
    "execute_partition",
    "layout_key",
    "release_layout",
]

#: (graph fingerprint, assignment sha256, machine count): the content
#: identity of one partition's layout, and of every trace run on it.
LayoutKey = Tuple[str, str, int]


def layout_key(partition: PartitionResult) -> LayoutKey:
    """The content key that :func:`execute_partition` caches under."""
    return (
        graph_fingerprint(partition.graph),
        hashlib.sha256(partition.assignment.tobytes()).hexdigest(),
        partition.num_machines,
    )


def release_layout(key: LayoutKey) -> None:
    """Drop the cached layout of ``key`` from memory.

    For a caller that knows the layout will not be asked for again, such
    as a stream whose next epoch replaced it.  The hit and miss counters
    are untouched, and the trace cached under the same key stays: it
    holds no graph.
    """
    dgraph_cache.discard(("dgraph",) + key)


def execute_partition(
    app: GraphApplication,
    partition: PartitionResult,
    key: Optional[LayoutKey] = None,
) -> Tuple[DistributedGraph, ExecutionTrace]:
    """Lay out a partition and execute an application on it, once.

    The layout is a pure function of (graph, assignment, machine count)
    — master selection uses one fixed hash seed — and the trace a
    pure function of that layout and the app's configuration, so both
    are memoised by content: identical partitions share one cached
    layout, and each distinct (app, partition) pair runs the engine
    once per process.  Traces are machine-agnostic and pricing never
    mutates them, so a hit returns exactly the bytes a miss would.  A
    cached trace also carries a price memo, so each distinct cluster
    prices it once (:func:`~repro.engine.report.enable_price_memo`).
    A caller that already holds the partition's :func:`layout_key` passes
    it as ``key``.
    """
    if key is None:
        key = layout_key(partition)
    dgraph_key = ("dgraph",) + key
    dgraph = dgraph_cache.get(dgraph_key)
    if dgraph is None:
        dgraph = DistributedGraph(partition)
        dgraph_cache.put(dgraph_key, dgraph)
    akey = app_key(app)
    if akey is None:
        return dgraph, app.execute(dgraph)
    trace_key = ("trace", akey) + key
    trace = trace_cache.get(trace_key)
    if trace is None:
        trace = app.execute(dgraph)
        enable_price_memo(trace)
        trace_cache.put(trace_key, trace)
    return dgraph, trace


#: Bytes migrated per re-assigned edge (two int64 endpoints).
_EDGE_BYTES = 16.0


@dataclass(frozen=True)
class RunOutcome:
    """Everything produced by one end-to-end run."""

    partition: PartitionResult
    dgraph: DistributedGraph
    trace: ExecutionTrace
    report: ExecutionReport


class GraphProcessingSystem:
    """Simulated distributed graph-processing framework.

    The recovery settings are all off by default; with no ``faults`` a
    run is priced exactly like
    :func:`~repro.engine.report.simulate_execution`.

    Parameters
    ----------
    cluster:
        The machines the framework runs on; partition count equals machine
        count, slot ``i`` of every partitioning lands on ``machines[i]``.
    faults:
        Fault scenario to inject into every run (``None``/empty = none).
    checkpoint, retry:
        Recovery policies under faults (defaults: see
        :mod:`repro.faults.checkpoint`).
    rebalance:
        Under faults, answer a persistent-straggler verdict of a fresh
        :class:`~repro.faults.Supervisor` by re-partitioning onto
        degradation-discounted weights mid-run.
    seed:
        RNG stream for recovery backoff jitter (default: the schedule's).
    """

    def __init__(
        self,
        cluster: Cluster,
        faults: Optional[FaultSchedule] = None,
        checkpoint: Optional[CheckpointPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        rebalance: bool = False,
        seed: Optional[int] = None,
    ):
        self.cluster = cluster
        self.faults = faults
        self.checkpoint = checkpoint
        self.retry = retry
        self.rebalance = rebalance
        self.seed = seed

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
            Partitioning algorithm instance (a re-balance re-partitions
            with it too).
        weights:
            Per-machine weight vector (``None`` = uniform; thread-count and
            CCR vectors plug in here).
        """
        partition = partitioner.partition(
            graph, self.cluster.num_machines, weights=weights
        )
        dgraph, trace = execute_partition(app, partition)
        supervisor = None
        rebalancer = None
        faulted = self.faults is not None and not self.faults.is_empty
        if faulted and self.rebalance:
            supervisor = Supervisor()
            base = uniform_weights(self.cluster) if weights is None else weights

            def rebalancer(superstep, factors):
                with obs.span(
                    "resilient/rebalance",
                    superstep=superstep,
                    stragglers=sorted(factors),
                ):
                    new_weights = supervisor.degraded_weights(base)
                    moved = partitioner.partition(
                        graph, self.cluster.num_machines, weights=new_weights
                    )
                    _, new_trace = execute_partition(app, moved)
                    return new_trace, self._migration_seconds(partition, moved)

        report = simulate_resilient_execution(
            trace,
            self.cluster,
            schedule=self.faults,
            checkpoint=self.checkpoint,
            retry=self.retry,
            supervisor=supervisor,
            rebalancer=rebalancer,
            seed=self.seed,
        )
        return RunOutcome(
            partition=partition, dgraph=dgraph, trace=trace, report=report
        )

    def _migration_seconds(
        self, old: PartitionResult, new: PartitionResult
    ) -> float:
        """One-off cost of moving re-assigned edges between machines.

        Every edge whose slot changed crosses the network once; the moves
        happen in parallel across machine pairs, so the charge is the
        total volume over the cluster's aggregate exchange bandwidth.
        """
        moved = int(np.count_nonzero(old.assignment != new.assignment))
        aggregate_gbs = self.cluster.network.bandwidth_gbs * max(
            1, self.cluster.num_machines
        )
        return moved * _EDGE_BYTES / (aggregate_gbs * 1e9)

    def run_single_machine(
        self, app: GraphApplication, graph: DiGraph
    ) -> ExecutionTrace:
        """Execute on one machine only (the profiling configuration).

        Profiling (Fig. 7a) measures "each machine's graph computation
        power ... without communication interference": the whole graph is
        one partition, so no mirrors exist and the trace contains pure
        compute.  The returned trace can then be priced on any machine
        spec via :func:`repro.engine.report.simulate_execution`.
        """
        assignment = np.zeros(graph.num_edges, dtype=np.int32)
        single = PartitionResult(
            graph=graph,
            assignment=assignment,
            num_machines=1,
            algorithm="single",
            weights=np.array([1.0]),
        )
        return execute_partition(app, single)[1]
