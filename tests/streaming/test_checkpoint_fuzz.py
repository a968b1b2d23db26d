"""Mutation fuzz of persisted checkpoints (hypothesis).

Every damaged manifest row, damaged epoch-record row and damaged
``from_jsonable`` payload must end one of two ways: ``fetch`` returns a
checkpoint whose canonical JSON equals the original's, or it returns
``None`` with a row quarantined (``from_jsonable`` returns a checkpoint
or raises :class:`~repro.errors.StreamCheckpointError`).  No bare
``KeyError``/``TypeError``/``ValueError``/``IndexError`` may escape.
Mutations: byte flips, truncation, wrong-typed fields, dropped or extra
keys, and reordered digests; a mutated row is written either through
``put`` (the row's own sha256 is valid, only the checkpoint's checks can
catch it) or behind the store's back (its sha256 is stale).
"""

import copy
import json
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import make_app
from repro.errors import StreamCheckpointError
from repro.faults.checkpoint import CheckpointPolicy
from repro.partition import make_partitioner
from repro.store import SummaryStore
from repro.store.store import key_sha
from repro.streaming import (
    CHECKPOINT_NAMESPACE,
    RECORD_NAMESPACE,
    CheckpointCustody,
    StreamCheckpoint,
    StreamingSystem,
)
from repro.streaming.recovery import record_key
from repro.testing import (
    GOLDEN_PARTITIONER,
    GOLDEN_PARTITIONER_SEED,
    GOLDEN_STREAM_HALO,
    GOLDEN_WEIGHTS,
    golden_cluster,
    golden_graph,
    golden_stream,
)

JOB = "fuzz"

#: Values that trip a careless conversion: ``int()`` of infinity or
#: NaN, ``float()`` of text, iteration over a string or an object.
EDGE_VALUES = (
    None, True, 0, -1, 2**70, 1.5, float("inf"), float("-inf"),
    float("nan"), "", "x", "1", [], [1, "a"], [[0]], {}, {"a": None},
)

#: Values of every JSON type, for wrong-typed fields and extra keys;
#: half of the draws are edge values.
json_values_st = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=4),
        st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    ),
)


@pytest.fixture(scope="module")
def snapshot():
    """The cursor-2 snapshot of the golden stream (three epoch records)."""
    graph = golden_graph()
    custody = CheckpointCustody()
    StreamingSystem(
        golden_cluster(),
        halo=GOLDEN_STREAM_HALO,
        checkpoint=CheckpointPolicy(interval=1),
        custody=custody,
        job_id=JOB,
    ).run_resilient(
        make_app("pagerank"),
        graph,
        golden_stream(graph),
        make_partitioner(GOLDEN_PARTITIONER, seed=GOLDEN_PARTITIONER_SEED),
        weights=GOLDEN_WEIGHTS,
    )
    return custody._entries[JOB][2][1]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    opened = SummaryStore.create(
        str(tmp_path_factory.mktemp("fuzz") / "store.db")
    )
    yield opened
    opened.close()


@st.composite
def json_mutations(draw, is_manifest):
    """A function that damages one decoded JSON object."""
    kind = draw(
        st.sampled_from(
            ["wrong-type", "drop", "extra"]
            + (["reorder"] if is_manifest else [])
        )
    )
    value = draw(json_values_st)
    pick = draw(st.integers(min_value=0, max_value=2**16))
    extra = draw(st.text(min_size=1, max_size=6))

    def mutate(doc):
        keys = sorted(doc)
        key = keys[pick % len(keys)]
        if kind == "wrong-type":
            doc[key] = value
        elif kind == "drop":
            del doc[key]
        elif kind == "extra":
            doc[extra if extra not in doc else extra + "_"] = value
        else:
            digests = doc["records"]
            shift = 1 + pick % (len(digests) - 1)
            doc["records"] = digests[shift:] + digests[:shift]
        return doc

    return mutate


@st.composite
def byte_mutations(draw):
    """A function that flips one byte of, or truncates, a payload."""
    kind = draw(st.sampled_from(["flip", "truncate"]))
    position = draw(st.integers(min_value=0, max_value=2**20))
    xor = draw(st.integers(min_value=1, max_value=255))

    def mutate(payload):
        if kind == "truncate":
            return payload[: position % len(payload)]
        index = position % len(payload)
        flipped = bytes([payload[index] ^ xor])
        return payload[:index] + flipped + payload[index + 1:]

    return mutate


@st.composite
def row_damage(draw):
    """(target row, payload mutation, write through put or behind it)."""
    target = draw(st.sampled_from(["manifest", 0, 1, 2]))
    is_manifest = target == "manifest"
    if draw(st.booleans()):
        structural = draw(json_mutations(is_manifest))

        def mutate(payload):
            doc = structural(json.loads(payload))
            return json.dumps(doc, sort_keys=True).encode("utf-8")

    else:
        mutate = draw(byte_mutations())
    return target, mutate, draw(st.booleans())


def _write_behind_the_store(store, namespace, key_text, payload):
    """Overwrite a row's payload without refreshing its sha256."""
    raw = sqlite3.connect(store.path, isolation_level=None)
    try:
        raw.execute(
            "UPDATE summaries SET payload = ? "
            "WHERE namespace = ? AND key_sha = ?",
            (payload, namespace, key_sha(key_text)),
        )
    finally:
        raw.close()


class TestFetchFuzz:
    @given(damage=row_damage())
    @settings(max_examples=150, deadline=None)
    def test_fetch_is_exact_or_a_quarantined_miss(
        self, snapshot, store, damage
    ):
        target, mutate, through_put = damage
        store.vacuum()  # forget earlier examples' quarantine records
        custody = CheckpointCustody(store)
        custody.record(JOB, snapshot, durable_at_s=0.0)
        key = snapshot.checkpoint_key(JOB)
        if target == "manifest":
            namespace, row_key = CHECKPOINT_NAMESPACE, key
        else:
            namespace = RECORD_NAMESPACE
            row_key = record_key(snapshot.record_digests()[target])
        damaged = mutate(store.get(namespace, row_key))
        if through_put:
            store.put(namespace, row_key, damaged)
        else:
            _write_behind_the_store(store, namespace, row_key, damaged)

        _check_fetch(custody, store, snapshot)


def _check_fetch(custody, store, snapshot):
    """The fetch contract: the exact snapshot, or a quarantined miss."""
    fetched = custody.fetch(snapshot.checkpoint_key(JOB))
    if fetched is None:
        assert store.quarantined(), "a miss without a quarantined row"
    else:
        assert fetched.canonical_json() == snapshot.canonical_json()
        assert fetched.fingerprint() == snapshot.fingerprint()


def _check_from_jsonable(payload):
    """The loader contract: a checkpoint, or StreamCheckpointError."""
    try:
        loaded = StreamCheckpoint.from_jsonable(payload)
    except StreamCheckpointError:
        return
    assert loaded.state_bytes() == len(
        loaded.canonical_json().encode("utf-8")
    )
    try:
        loaded.restored_epochs()
    except StreamCheckpointError:
        pass


class TestEveryFieldEveryEdgeValue:
    """The deterministic sweep under the fuzz: each field of a manifest,
    a snapshot payload and an epoch record, set to each edge value."""

    def test_manifest_fields(self, snapshot, store):
        custody = CheckpointCustody(store)
        key = snapshot.checkpoint_key(JOB)
        custody.record(JOB, snapshot, durable_at_s=0.0)
        fields = sorted(json.loads(store.get(CHECKPOINT_NAMESPACE, key)))
        for field in fields:
            for value in EDGE_VALUES:
                store.vacuum()
                custody.record(JOB, snapshot, durable_at_s=0.0)
                manifest = json.loads(store.get(CHECKPOINT_NAMESPACE, key))
                manifest[field] = value
                store.put(
                    CHECKPOINT_NAMESPACE,
                    key,
                    json.dumps(manifest, sort_keys=True).encode("utf-8"),
                )
                _check_fetch(custody, store, snapshot)

    def test_payload_and_record_fields(self, snapshot):
        # Parsed once.  Each case copies only the containers on its path
        # (a deep copy per case cost more than re-parsing the text) and
        # shares the rest, which the loader only reads.
        original = json.loads(snapshot.canonical_json())
        for path in [(), ("epoch_records", 0), ("epoch_records", 2)]:
            target = original
            for step in path:
                target = target[step]
            for field in sorted(target):
                for value in EDGE_VALUES:
                    payload = doc = copy.copy(original)
                    for step in path:
                        doc[step] = copy.copy(doc[step])
                        doc = doc[step]
                    doc[field] = value
                    _check_from_jsonable(payload)
        assert original == json.loads(snapshot.canonical_json())


class TestFromJsonableFuzz:
    @given(
        mutate=st.one_of(json_mutations(False), st.none()),
        record_index=st.one_of(st.none(), st.integers(0, 2)),
    )
    @settings(max_examples=200, deadline=None)
    def test_payload_is_accepted_or_rejected_typed(
        self, snapshot, mutate, record_index
    ):
        payload = json.loads(snapshot.canonical_json())
        if mutate is not None:
            if record_index is None:
                mutate(payload)
            else:
                mutate(payload["epoch_records"][record_index])
        _check_from_jsonable(payload)
