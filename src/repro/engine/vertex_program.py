"""Application interfaces for the simulated PowerGraph engine.

Two kinds of programs exist:

* :class:`SyncVertexProgram` — iterative gather-apply programs executed by
  :class:`~repro.engine.sync_engine.SyncEngine` (PageRank, Connected
  Components).  The kernels are *vectorised*: they receive NumPy arrays of
  edge endpoints/values, never single vertices — a requirement for running
  the real algorithms on hundreds of thousands of edges in Python.
* :class:`GraphApplication` — the general contract every application
  (including non-GAS ones like Triangle Count and asynchronous Coloring)
  fulfils: execute on a :class:`DistributedGraph`, return an
  :class:`~repro.engine.trace.ExecutionTrace`.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from repro.engine.accounting import AppCostModel
from repro.engine.distributed_graph import DistributedGraph
from repro.engine.trace import ExecutionTrace
from repro.graph.digraph import DiGraph

__all__ = ["GraphApplication", "SyncVertexProgram"]


class GraphApplication(abc.ABC):
    """A runnable graph application with a calibrated cost model."""

    #: Application name used in CCR pools and reports.
    name: str = "abstract"

    #: Per-operation cost constants (see :class:`AppCostModel`).
    cost: AppCostModel

    @abc.abstractmethod
    def execute(self, dgraph: DistributedGraph) -> ExecutionTrace:
        """Run the algorithm on the partitioned graph.

        The returned trace carries both the algorithm result (for
        correctness checks) and the per-machine work accounting (for
        timing/energy simulation).
        """


class SyncVertexProgram(GraphApplication):
    """Gather-apply program executed in synchronous supersteps.

    Subclasses define the per-superstep dataflow:

    * :meth:`initial_values` / :meth:`initial_active` — state at
      superstep 0.
    * :meth:`messages` — the gather phase: per-edge contributions computed
      from source-endpoint values (push-style).
    * :attr:`accumulator` — how contributions combine at the target
      (``"sum"`` or ``"min"``); must be commutative and associative so the
      per-machine partial aggregation matches a global computation.  A
      ``"min"`` program runs once per graph and is accounted per
      partition; a ``"sum"`` program must be directed.
    * :meth:`apply` — new vertex values and the next active set.

    ``undirected`` programs send messages both ways across every edge
    (Connected Components treats the graph as undirected, as the
    PowerGraph implementation does).
    """

    #: How per-edge messages combine at the target vertex.
    accumulator: str = "sum"
    #: Whether messages traverse edges in both directions.
    undirected: bool = False
    #: Declares that :meth:`messages` is a pure elementwise function of
    #: each source endpoint (``messages(g, v, s)[k]`` depends only on
    #: ``s[k]``).  The engine then computes messages once over
    #: all machines' live edges and slices per machine — bit-identical for
    #: elementwise float ops.  The engine runs only programs that declare
    #: it, and raises :class:`~repro.errors.EngineError` for the rest.
    #: An elementwise program may additionally define
    #: ``messages_vertexwise(graph, values) -> per-vertex array`` with
    #: ``messages(g, v, s) == messages_vertexwise(g, v)[s]`` (same float64
    #: bits per slot); the engine then computes messages once
    #: per vertex and gathers per edge.
    messages_elementwise: bool = False
    #: Safety bound on supersteps.
    max_supersteps: int = 200
    #: When true, hitting the superstep budget without convergence raises
    #: :class:`~repro.errors.ConvergenceError` instead of returning a
    #: ``converged: False`` trace.
    strict: bool = False

    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def initial_values(self, graph: DiGraph) -> np.ndarray:
        """Per-vertex state at superstep 0."""

    def initial_active(self, graph: DiGraph) -> np.ndarray:
        """Active mask at superstep 0 (default: all vertices)."""
        return np.ones(graph.num_vertices, dtype=bool)

    @abc.abstractmethod
    def messages(
        self, graph: DiGraph, values: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        """Per-edge contributions from the given source endpoints.

        ``sources`` is the array of source-endpoint vertex ids for the
        participating edges; the return value must align with it.
        """

    @abc.abstractmethod
    def apply(
        self,
        graph: DiGraph,
        values: np.ndarray,
        acc: np.ndarray,
        has_message: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Combine accumulated messages into new state.

        Parameters
        ----------
        values:
            Current per-vertex values.
        acc:
            Accumulated messages (identity element where no message
            arrived).
        has_message:
            Mask of vertices that received at least one message.

        Returns
        -------
        (new_values, new_active)
            The updated state and the vertices active next superstep.
        """

    def finalize(self, graph: DiGraph, values: np.ndarray) -> dict:
        """Turn the converged state into the result dict."""
        return {"values": values}

    # ------------------------------------------------------------------ #

    def execute(self, dgraph: DistributedGraph) -> ExecutionTrace:
        # Import here to avoid a module cycle (sync_engine imports the
        # program interface for typing).
        from repro.engine.sync_engine import SyncEngine

        return SyncEngine(strict=self.strict).run(self, dgraph)
