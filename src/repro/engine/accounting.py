"""Application cost models and work accounting.

The engine executes the real algorithms and *counts* the abstract
operations each machine performs; an :class:`AppCostModel` converts those
counts into a :class:`~repro.cluster.perfmodel.WorkProfile` that the
machine performance model prices.  This separation is what makes CCR
profiling cheap here: an execution trace captured once can be re-priced on
any machine type without re-running the algorithm.

The constants are per *abstract operation* — one gather over one edge, one
apply on one vertex — and are calibrated per application so the
machine-scaling curves of Fig. 2 / Fig. 8 emerge (see DESIGN.md).  What
matters downstream is never an absolute constant but the *ratios* between
compute, streaming and cacheable traffic, which encode each application's
arithmetic intensity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.perfmodel import WorkProfile
from repro.errors import EngineError

__all__ = ["AppCostModel"]


@dataclass(frozen=True)
class AppCostModel:
    """Per-operation cost constants of one graph application.

    Attributes
    ----------
    flops_per_edge_op:
        Compute per gather/scatter edge operation.
    stream_bytes_per_edge_op:
        Compulsory memory traffic per edge operation (edge record + remote
        value); caches cannot absorb it.
    cacheable_bytes_per_edge_op:
        Re-read traffic per edge operation (adjacency/accumulator reuse);
        absorbed when the hot working set fits the LLC.
    flops_per_vertex_op:
        Compute per apply operation.
    stream_bytes_per_vertex_op:
        Memory traffic per apply.
    serial_fraction:
        Fraction of the parallel work that is inherently sequential (the
        Amdahl term): lock acquisition, per-partition scheduling, scatter
        ordering.  Asynchronous applications carry a larger value (their
        fine-grained locking serialises more work).
    serial_flops_per_superstep:
        Fixed sequential coordination work per superstep (barrier
        bookkeeping), independent of graph size.
    value_bytes:
        Mirror-synchronisation payload per replicated vertex per superstep.
    sync_rounds:
        Latency-bound network rounds per superstep (a GAS superstep has a
        gather-aggregation and an apply-broadcast round).
    """

    flops_per_edge_op: float
    stream_bytes_per_edge_op: float
    cacheable_bytes_per_edge_op: float
    flops_per_vertex_op: float
    stream_bytes_per_vertex_op: float
    serial_fraction: float = 0.0
    serial_flops_per_superstep: float = 0.0
    value_bytes: int = 8
    sync_rounds: int = 2

    def __post_init__(self):
        for attr in (
            "flops_per_edge_op",
            "stream_bytes_per_edge_op",
            "cacheable_bytes_per_edge_op",
            "flops_per_vertex_op",
            "stream_bytes_per_vertex_op",
            "serial_flops_per_superstep",
        ):
            if getattr(self, attr) < 0:
                raise EngineError(f"AppCostModel.{attr} must be >= 0")
        if not 0.0 <= self.serial_fraction < 1.0:
            raise EngineError("serial_fraction must be in [0, 1)")
        if self.value_bytes < 1:
            raise EngineError("value_bytes must be >= 1")
        if self.sync_rounds < 0:
            raise EngineError("sync_rounds must be >= 0")

    def work(
        self,
        edge_ops: float,
        vertex_ops: float,
        working_set_mb: float = 0.0,
    ) -> WorkProfile:
        """Price counted operations into a :class:`WorkProfile`.

        Parameters
        ----------
        edge_ops, vertex_ops:
            Operation counts for one machine during one superstep.
        working_set_mb:
            Hot working set governing the cacheable miss rate.

        Every phase pays the per-superstep serial cost: idle machines
        with zero ops still pay it, because they participate in the
        superstep.
        """
        if edge_ops < 0 or vertex_ops < 0:
            raise EngineError("operation counts must be >= 0")
        total_flops = (
            edge_ops * self.flops_per_edge_op
            + vertex_ops * self.flops_per_vertex_op
        )
        serial = (
            self.serial_fraction * total_flops
            + self.serial_flops_per_superstep
        )
        return WorkProfile(
            flops=total_flops * (1.0 - self.serial_fraction),
            serial_flops=serial,
            streaming_bytes=edge_ops * self.stream_bytes_per_edge_op
            + vertex_ops * self.stream_bytes_per_vertex_op,
            cacheable_bytes=edge_ops * self.cacheable_bytes_per_edge_op,
            working_set_mb=working_set_mb,
        )
