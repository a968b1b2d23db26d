"""Partitioner interface and partition results.

All of the paper's algorithms are *vertex-cut* (or mixed-cut) schemes: the
unit of assignment is the **edge**, and a vertex is replicated (mirrored)
on every machine that holds one of its edges.  A partitioning is therefore
just an integer array aligned with the graph's canonical edge order.

Heterogeneity-awareness enters through a *weight vector*: ``weights[i]`` is
the share of edges machine ``i`` should receive, normalised to sum to 1.
Uniform weights give the original homogeneous algorithms; thread-count
weights give the prior work's behaviour; CCR weights give the paper's.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.errors import PartitionError
from repro.graph.digraph import DiGraph
from repro.kernels.cache import assignment_cache, graph_fingerprint
from repro.obs import context as obs
from repro.utils.validation import check_array_1d

__all__ = ["PartitionResult", "Partitioner", "normalize_weights"]


def normalize_weights(
    weights: Optional[ArrayLike], num_machines: int
) -> NDArray[np.float64]:
    """Validate and normalise a weight vector to sum to 1.

    ``None`` yields uniform weights (the homogeneous baseline).
    """
    if weights is None:
        return np.full(num_machines, 1.0 / num_machines)
    w = check_array_1d("weights", np.asarray(weights, dtype=np.float64))
    if w.size != num_machines:
        raise PartitionError(
            f"weight vector has {w.size} entries but the cluster has "
            f"{num_machines} machines"
        )
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise PartitionError("weights must be finite and strictly positive")
    return w / w.sum()


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of partitioning one graph across ``num_machines`` machines.

    Attributes
    ----------
    graph:
        The partitioned graph (assignment indexes its canonical edge order).
    assignment:
        ``int32`` machine id per edge.
    num_machines:
        Number of machines (partitions).
    algorithm:
        Name of the producing algorithm, e.g. ``"hybrid"``.
    weights:
        The normalised target weight vector that guided the assignment.
    """

    graph: DiGraph
    assignment: NDArray[np.int32]
    num_machines: int
    algorithm: str
    weights: NDArray[np.float64]

    def __post_init__(self) -> None:
        assignment = np.ascontiguousarray(self.assignment, dtype=np.int32)
        object.__setattr__(self, "assignment", assignment)
        if assignment.ndim != 1 or assignment.size != self.graph.num_edges:
            raise PartitionError(
                f"assignment must have one entry per edge "
                f"({self.graph.num_edges}), got shape {assignment.shape}"
            )
        if self.num_machines < 1:
            raise PartitionError("num_machines must be >= 1")
        if assignment.size and (
            assignment.min() < 0 or assignment.max() >= self.num_machines
        ):
            raise PartitionError(
                f"assignment values must lie in [0, {self.num_machines})"
            )
        object.__setattr__(
            self, "weights", normalize_weights(self.weights, self.num_machines)
        )

    def edges_per_machine(self) -> NDArray[np.int64]:
        """Edge count per machine (int64 array of length ``num_machines``)."""
        return np.bincount(self.assignment, minlength=self.num_machines).astype(
            np.int64
        )

    def machine_edges(self, machine: int) -> NDArray[np.intp]:
        """Canonical edge indices assigned to ``machine``."""
        if not 0 <= machine < self.num_machines:
            raise PartitionError(
                f"machine {machine} out of range [0, {self.num_machines})"
            )
        return np.nonzero(self.assignment == machine)[0]


class Partitioner(abc.ABC):
    """Abstract edge partitioner.

    Subclasses implement :meth:`_assign`; the public :meth:`partition`
    validates inputs and wraps the result.  Partitioners are stateless and
    deterministic given ``(graph, weights, seed)`` — determinism is what
    lets independent loaders agree on edge placement.
    """

    #: Algorithm name used in reports; subclasses must override.
    name: str = "abstract"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def partition(
        self,
        graph: DiGraph,
        num_machines: int,
        weights: Optional[ArrayLike] = None,
    ) -> PartitionResult:
        """Partition ``graph`` over ``num_machines`` machines.

        Parameters
        ----------
        weights:
            Target edge share per machine (normalised internally); ``None``
            for uniform.
        """
        if num_machines < 1:
            raise PartitionError("num_machines must be >= 1")
        w = normalize_weights(weights, num_machines)
        # Content-keyed assignment memo.
        cache_key = (
            "assignment",
            self.name,
            self._config_key(),
            graph_fingerprint(graph),
            num_machines,
            w.tobytes(),
        )
        cached = assignment_cache.get(cache_key)
        if cached is not None:
            return PartitionResult(
                graph=graph,
                assignment=cached,
                num_machines=num_machines,
                algorithm=self.name,
                weights=w,
            )
        with obs.span(
            f"partition/{self.name}",
            algorithm=self.name,
            edges=graph.num_edges,
            vertices=graph.num_vertices,
            machines=num_machines,
            seed=self.seed,
        ) as span:
            assignment = self._assign(graph, num_machines, w)
        result = PartitionResult(
            graph=graph,
            assignment=assignment,
            num_machines=num_machines,
            algorithm=self.name,
            weights=w,
        )
        # PartitionResult.__post_init__ already produced a contiguous
        # int32 array; freeze it so every consumer (current and cached)
        # shares one immutable copy.
        result.assignment.setflags(write=False)
        assignment_cache.put(cache_key, result.assignment)
        if obs.is_enabled():
            counts = result.edges_per_machine()
            obs.counter_add(
                "partition.edges_assigned",
                float(counts.sum()),
                algorithm=self.name,
            )
            if counts.sum() > 0:
                shares = counts / counts.sum()
                # Worst overload relative to the target weight vector: 1.0
                # is a perfectly weighted split.
                obs.gauge_set(
                    "partition.max_share_over_target",
                    float(np.max(shares / result.weights)),
                    algorithm=self.name,
                )
            span.set(
                weights=result.weights.tolist(),
                edges_per_machine=counts.tolist(),
            )
        return result

    def _config_key(self) -> Tuple[Tuple[str, str], ...]:
        """Hashable identity of this partitioner's full configuration.

        ``repr`` of every instance attribute (seed included) — two
        partitioners with equal config keys produce identical assignments,
        which is what makes the assignment memo sound.
        """
        return tuple(sorted((k, repr(v)) for k, v in vars(self).items()))

    @abc.abstractmethod
    def _assign(
        self, graph: DiGraph, num_machines: int, weights: NDArray[np.float64]
    ) -> NDArray[np.int32]:
        """Return the int machine id per canonical edge."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seed={self.seed})"
