"""Property-based tests (hypothesis) on stream-checkpoint round-trips.

The load-bearing recovery contract: a :class:`StreamCheckpoint` cut at
*any* batch cursor, serialized to canonical JSON and restored, must
continue the run byte-identically to the undisturbed trace — for every
Case 1 partitioning strategy.  Also sweeps
the serialization invariants themselves (canonical-JSON idempotence,
fingerprint stability, validation of tampered payloads).
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import make_app
from repro.errors import StreamCheckpointError
from repro.experiments.common import CASE1_PARTITIONERS, case1_cluster
from repro.faults.checkpoint import CheckpointPolicy
from repro.partition import make_partitioner
from repro.powerlaw.generator import generate_power_law_graph
from repro.streaming import (
    CheckpointCustody,
    ResilientStreamingSystem,
    StreamCheckpoint,
    StreamingSystem,
    generate_stream,
)

APP = "pagerank"
HALO = 1
WEIGHTS = None
NUM_BATCHES = 3

strategies_st = st.sampled_from(CASE1_PARTITIONERS)
cursors_st = st.integers(min_value=0, max_value=NUM_BATCHES)
seeds_st = st.integers(min_value=0, max_value=2**16 - 1)

_graph = generate_power_law_graph(num_vertices=240, alpha=2.1, seed=77)
_stream = generate_stream(
    _graph, pattern="churn", num_batches=NUM_BATCHES, ops_per_batch=8, seed=5
)

#: Per-strategy caches: the plain trace and the custody of a fully
#: checkpointed run are deterministic, so each strategy's is computed
#: once and reused across hypothesis examples.
_plain_traces = {}
_custodies = {}


def _partitioner(strategy):
    return make_partitioner(strategy, seed=7)


def _plain_trace(strategy):
    if strategy not in _plain_traces:
        result = StreamingSystem(case1_cluster(0.01), halo=HALO).run(
            make_app(APP), _graph, _stream, _partitioner(strategy)
        )
        _plain_traces[strategy] = result.trace_json()
    return _plain_traces[strategy]


def _checkpoint_at(strategy, cursor) -> StreamCheckpoint:
    """The cursor-``cursor`` snapshot of a fully checkpointed run."""
    if strategy not in _custodies:
        custody = CheckpointCustody()
        ResilientStreamingSystem(
            case1_cluster(0.01),
            halo=HALO,
            custody=custody,
            job_id="prop",
            checkpoint=CheckpointPolicy(interval=1),
        ).run_resilient(make_app(APP), _graph, _stream, _partitioner(strategy))
        _custodies[strategy] = custody
    # interval=1 snapshots every epoch: entries[c] holds cursor c.
    return _custodies[strategy]._entries["prop"][cursor][1]


class TestResumeByteIdentity:
    @given(strategies_st, cursors_st)
    @settings(max_examples=25, deadline=None)
    def test_restored_checkpoint_continues_byte_identically(
        self, strategy, cursor
    ):
        snapshot = _checkpoint_at(strategy, cursor)
        assert snapshot.batch_cursor == cursor
        restored = StreamCheckpoint.from_jsonable(
            json.loads(snapshot.canonical_json())
        )
        outcome = ResilientStreamingSystem(
            case1_cluster(0.01), halo=HALO
        ).run_resilient(
            make_app(APP),
            _graph,
            _stream,
            _partitioner(strategy),
            resume_from=restored,
        )
        assert outcome.recovery.resumed_from_batch == cursor
        assert outcome.result.trace_json() == _plain_trace(strategy)


class TestSerializationInvariants:
    @given(strategies_st, cursors_st)
    @settings(max_examples=15, deadline=None)
    def test_canonical_json_round_trip_is_idempotent(self, strategy, cursor):
        snapshot = _checkpoint_at(strategy, cursor)
        once = StreamCheckpoint.from_jsonable(
            json.loads(snapshot.canonical_json())
        )
        twice = StreamCheckpoint.from_jsonable(
            json.loads(once.canonical_json())
        )
        assert once.canonical_json() == snapshot.canonical_json()
        assert twice.canonical_json() == snapshot.canonical_json()
        assert twice.fingerprint() == snapshot.fingerprint()

    @given(strategies_st, cursors_st, seeds_st)
    @settings(max_examples=15, deadline=None)
    def test_unknown_fields_always_rejected(self, strategy, cursor, seed):
        snapshot = _checkpoint_at(strategy, cursor)
        payload = json.loads(snapshot.canonical_json())
        payload[f"extra_{seed}"] = seed
        with pytest.raises(StreamCheckpointError, match="extra_"):
            StreamCheckpoint.from_jsonable(payload)

    @given(strategies_st, cursors_st)
    @settings(max_examples=10, deadline=None)
    def test_cursor_tampering_rejected(self, strategy, cursor):
        snapshot = _checkpoint_at(strategy, cursor)
        with pytest.raises(StreamCheckpointError, match="epoch records"):
            dataclasses.replace(
                snapshot, batch_cursor=snapshot.batch_cursor + 3
            )
