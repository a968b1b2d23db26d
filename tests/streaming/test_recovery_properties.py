"""Property-based tests (hypothesis) on stream-checkpoint round-trips.

The load-bearing recovery contract: a :class:`StreamCheckpoint` cut at
*any* batch cursor, serialized to canonical JSON and restored, must
continue the run byte-identically to the undisturbed trace — for every
Case 1 partitioning strategy.  Also sweeps
the serialization invariants themselves (canonical-JSON idempotence,
fingerprint stability, validation of tampered payloads), and pins the
spliced canonical text, the store row and the billed snapshot size to
plain ``json.dumps`` of ``to_jsonable()`` for random checkpoints.
"""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import make_app
from repro.errors import StreamCheckpointError
from repro.experiments.common import CASE1_PARTITIONERS, case1_cluster
from repro.faults.checkpoint import CheckpointPolicy
from repro.partition import make_partitioner
from repro.powerlaw.generator import generate_power_law_graph
from repro.store.codecs import JSON_CODEC
from repro.streaming import (
    CHECKPOINT_NAMESPACE,
    CheckpointCustody,
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
        StreamingSystem(
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
        custody = CheckpointCustody()
        custody.record("resume", restored, durable_at_s=0.0)
        outcome = StreamingSystem(
            case1_cluster(0.01),
            halo=HALO,
            checkpoint=CheckpointPolicy(),
            custody=custody,
            job_id="resume",
        ).run_resilient(
            make_app(APP),
            _graph,
            _stream,
            _partitioner(strategy),
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


# ---------------------------------------------------------------------- #
# One encoding, three consumers
# ---------------------------------------------------------------------- #

text_st = st.text(max_size=6)  # includes non-ASCII code points
float_st = st.one_of(st.just(-0.0), st.floats(allow_nan=False))
int_st = st.integers(min_value=-(2**80), max_value=2**80)
json_st = st.recursive(
    st.one_of(st.none(), st.booleans(), float_st, int_st, text_st),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(text_st, inner, max_size=3),
    ),
    max_leaves=12,
)
record_st = st.dictionaries(text_st, json_st, max_size=4)


@st.composite
def checkpoint_fields(draw):
    """Keyword arguments of a random, valid :class:`StreamCheckpoint`."""
    machines = draw(st.integers(min_value=1, max_value=4))
    cursor = draw(st.integers(min_value=0, max_value=4))
    return {
        "app": draw(text_st),
        "algorithm": draw(text_st),
        "partition_algorithm": draw(text_st),
        "halo": draw(st.integers(min_value=0, max_value=3)),
        "num_machines": machines,
        "graph_fingerprint": draw(text_st),
        "stream_fingerprint": draw(text_st),
        "batch_cursor": cursor,
        "clock_s": draw(float_st),
        "epoch_records": tuple(
            draw(st.lists(record_st, min_size=cursor + 1, max_size=cursor + 1))
        ),
        "assignment": tuple(
            draw(st.lists(st.integers(-(2**62), 2**62), max_size=8))
        ),
        "weights": tuple(
            draw(st.lists(float_st, min_size=machines, max_size=machines))
        ),
        "monitor": draw(
            st.one_of(
                st.none(),
                st.dictionaries(
                    text_st, st.dictionaries(text_st, json_st, max_size=3),
                    max_size=3,
                ),
            )
        ),
    }


def _live_capture(fields):
    """Capture ``fields`` the way a run does: the snapshot one epoch
    earlier encodes the shared records, and this one reuses them."""
    system = StreamingSystem(case1_cluster(0.01), halo=fields["halo"])
    system.monitor = SimpleNamespace(state_dict=lambda: fields["monitor"])
    result = SimpleNamespace(
        algorithm=fields["partition_algorithm"],
        num_machines=fields["num_machines"],
        assignment=np.asarray(fields["assignment"], dtype=np.int64),
        weights=np.asarray(fields["weights"], dtype=np.float64),
    )

    def capture(cursor, encoded):
        return system._capture(
            SimpleNamespace(name=fields["app"]),
            SimpleNamespace(name=fields["algorithm"]),
            fields["graph_fingerprint"],
            fields["stream_fingerprint"],
            cursor=cursor,
            clock_s=fields["clock_s"],
            records=list(fields["epoch_records"][: cursor + 1]),
            encoded=encoded,
            result=result,
        )

    cursor = fields["batch_cursor"]
    encoded = capture(cursor - 1, ()).record_json() if cursor else ()
    return capture(cursor, encoded)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    from repro.store import SummaryStore

    opened = SummaryStore.create(
        str(tmp_path_factory.mktemp("encoding") / "store.db")
    )
    yield opened
    opened.close()


def _assert_one_encoding(checkpoint, store):
    """Text, store row and billed size are all the plain JSON encoding."""
    CheckpointCustody(store).record("bytes", checkpoint, durable_at_s=0.0)
    payload = store.get(CHECKPOINT_NAMESPACE, checkpoint.checkpoint_key("bytes"))
    plain = checkpoint.to_jsonable()
    assert checkpoint.canonical_json() == json.dumps(
        plain, sort_keys=True, separators=(",", ":")
    )
    assert payload == JSON_CODEC.encode(plain)
    assert checkpoint.state_bytes() == len(payload)


class TestOneEncoding:
    @given(checkpoint_fields())
    @settings(max_examples=60, deadline=None)
    def test_random_checkpoints_encode_like_json_dumps(self, store, fields):
        built = StreamCheckpoint(**fields)
        _assert_one_encoding(built, store)
        _assert_one_encoding(_live_capture(fields), store)
        loaded = StreamCheckpoint.from_jsonable(
            json.loads(built.canonical_json())
        )
        _assert_one_encoding(loaded, store)

    @given(strategies_st, cursors_st)
    @settings(max_examples=10, deadline=None)
    def test_run_checkpoints_encode_like_json_dumps(
        self, store, strategy, cursor
    ):
        snapshot = _checkpoint_at(strategy, cursor)
        _assert_one_encoding(snapshot, store)
        loaded = StreamCheckpoint.from_jsonable(
            json.loads(snapshot.canonical_json())
        )
        _assert_one_encoding(loaded, store)
