"""Streaming graph mutations and incremental re-partitioning.

Public surface of the streaming subsystem:

* :mod:`repro.streaming.mutations` — typed mutation ops, batches, the
  versioned :class:`MutationStream` format, and :func:`apply_batch`;
* :mod:`repro.streaming.generators` — seeded churn/growth/burst stream
  generators;
* :mod:`repro.streaming.incremental` — :class:`IncrementalPartitioner`,
  which repairs an existing assignment instead of re-running the strategy
  from scratch;
* :mod:`repro.streaming.runner` — :class:`StreamingSystem`, executing an
  application across mutation epochs on the simulated clock in one
  epoch loop; its constructor's recovery settings turn on checkpoints
  and crash replay, and a run resumes from the snapshot its custody
  holds for its job id;
* :mod:`repro.streaming.recovery` — :class:`StreamCheckpoint` and
  :class:`CheckpointCustody`: the snapshots that keep a recovered
  stream's trace byte-identical.
"""

from repro.streaming.generators import STREAM_PATTERNS, generate_stream
from repro.streaming.incremental import IncrementalPartitioner, StreamUpdate
from repro.streaming.mutations import (
    STREAM_FORMAT_VERSION,
    AddEdge,
    AddVertices,
    ApplyResult,
    Mutation,
    MutationBatch,
    MutationStream,
    RemoveEdge,
    RemoveVertex,
    ReviveVertex,
    apply_batch,
)
from repro.streaming.recovery import (
    CHECKPOINT_NAMESPACE,
    STREAM_CHECKPOINT_FORMAT_VERSION,
    CheckpointCustody,
    RestoredEpoch,
    StreamCheckpoint,
    replay_consumed_batches,
)
from repro.streaming.runner import (
    EpochLike,
    EpochOutcome,
    ResilientStreamingSystem,
    StreamingResult,
    StreamingSystem,
    StreamRunOutcome,
)

__all__ = [
    "STREAM_FORMAT_VERSION",
    "STREAM_PATTERNS",
    "AddVertices",
    "RemoveVertex",
    "ReviveVertex",
    "AddEdge",
    "RemoveEdge",
    "Mutation",
    "MutationBatch",
    "MutationStream",
    "ApplyResult",
    "apply_batch",
    "generate_stream",
    "IncrementalPartitioner",
    "StreamUpdate",
    "EpochLike",
    "EpochOutcome",
    "StreamingResult",
    "StreamingSystem",
    "CHECKPOINT_NAMESPACE",
    "STREAM_CHECKPOINT_FORMAT_VERSION",
    "StreamCheckpoint",
    "RestoredEpoch",
    "CheckpointCustody",
    "StreamRunOutcome",
    "ResilientStreamingSystem",
    "replay_consumed_batches",
]
