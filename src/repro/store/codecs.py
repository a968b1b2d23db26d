"""Deterministic payload codecs, one per store namespace.

Every value class the store persists has exactly one byte encoding, and
that encoding round-trips losslessly:

* floats serialize through Python's shortest-roundtrip ``repr`` (the same
  rule the canonical trace JSON uses), so ``decode(encode(x)) == x`` to
  the last bit;
* :class:`~repro.engine.trace.ExecutionTrace` serializes through its
  canonical JSON (format-versioned; stale formats fail loudly on decode);
* a :class:`~repro.streaming.recovery.StreamCheckpoint` serializes as a
  manifest, its ``manifest_json()`` (header, assignment, weights, record
  digests in order, fingerprint: the JSON codec's spelling of them), and
  decodes to that plain form once its shape checks out; each epoch
  record it names is one ``stream_record`` row, the record's canonical
  JSON fragment, which decodes to the record object;
* partition assignments serialize as a dtype/length header plus the raw
  little-endian array bytes, and decode to a *read-only* array — exactly
  the frozen object the in-process assignment cache shares.

Determinism of the encoding is what makes the per-row payload sha256 a
meaningful integrity check: re-encoding the recomputed value must
reproduce the stored bytes.
"""

from __future__ import annotations

import json
from typing import Any, Callable

import numpy as np

from repro.errors import ReproError
from repro.utils.canonical import canonical_json

__all__ = [
    "PayloadCodec",
    "FLOAT_CODEC",
    "TRACE_CODEC",
    "ASSIGNMENT_CODEC",
    "JSON_CODEC",
    "CHECKPOINT_CODEC",
    "RECORD_CODEC",
    "CODECS",
]


class PayloadCodec:
    """A named, deterministic ``value <-> bytes`` pair for one namespace."""

    def __init__(
        self,
        name: str,
        encode: Callable[[Any], bytes],
        decode: Callable[[bytes], Any],
    ):
        self.name = name
        self.encode = encode
        self.decode = decode

    def __repr__(self) -> str:
        return f"PayloadCodec({self.name!r})"


def _encode_float(value: Any) -> bytes:
    return repr(float(value)).encode("ascii")


def _decode_float(payload: bytes) -> float:
    return float(payload.decode("ascii"))


def _encode_canonical(value: Any) -> bytes:
    encoded: bytes = value.canonical_json().encode("utf-8")
    return encoded


def _decode_trace(payload: bytes) -> Any:
    """The trace in ``payload``; any malformed payload raises ``ValueError``.

    Valid JSON of the wrong shape (a list, a missing field, another
    format version) fails inside ``from_jsonable`` with whatever error
    the first bad access raises; it is re-raised as ``ValueError``, the
    one failure the store quarantines as an undecodable row.
    """
    # Imported lazily: repro.engine's package init pulls in modules that
    # themselves import the kernel caches (which import this module).
    from repro.engine.trace import ExecutionTrace

    data = json.loads(payload.decode("utf-8"))
    try:
        return ExecutionTrace.from_jsonable(data)
    except (AttributeError, LookupError, TypeError, ReproError) as exc:
        raise ValueError(f"malformed trace payload: {exc!r}") from exc


#: Assignment payload header; bump with the layout.
_ASSIGNMENT_MAGIC = b"i4le:"


def _encode_assignment(assignment: Any) -> bytes:
    arr = np.ascontiguousarray(assignment, dtype=np.dtype("<i4"))
    return _ASSIGNMENT_MAGIC + str(arr.size).encode("ascii") + b"\n" + arr.tobytes()


def _decode_assignment(payload: bytes) -> Any:
    if not payload.startswith(_ASSIGNMENT_MAGIC):
        raise ValueError("assignment payload missing its dtype header")
    header, _, body = payload.partition(b"\n")
    size = int(header[len(_ASSIGNMENT_MAGIC):])
    arr = np.frombuffer(body, dtype=np.dtype("<i4"), count=size).astype(
        np.int32, copy=True
    )
    # Mirror the in-process cache contract: cached assignments are frozen
    # so every consumer shares one immutable value.
    arr.setflags(write=False)
    return arr


def _encode_json(value: Any) -> bytes:
    return canonical_json(value).encode("utf-8")


def _decode_json(payload: bytes) -> Any:
    return json.loads(payload.decode("utf-8"))


def _encode_manifest(checkpoint: Any) -> bytes:
    encoded: bytes = checkpoint.manifest_json().encode("utf-8")
    return encoded


def _is_digest(value: Any) -> bool:
    return (
        isinstance(value, str)
        and len(value) == 64
        and all(c in "0123456789abcdef" for c in value)
    )


def _decode_manifest(payload: bytes) -> Any:
    """The plain manifest; anything that is not one raises ``ValueError``.

    Only the shape the re-assembly walks is checked here (an object with
    a ``records`` list of sha256 digests and a ``fingerprint``); the
    header fields are checked by ``StreamCheckpoint.from_jsonable``.  A
    full-snapshot row of the earlier layout has neither key.
    """
    doc = _decode_json(payload)
    if not isinstance(doc, dict):
        raise ValueError("checkpoint manifest is not a JSON object")
    records = doc.get("records")
    if not isinstance(records, list) or not all(map(_is_digest, records)):
        raise ValueError("checkpoint manifest has no list of record digests")
    if not _is_digest(doc.get("fingerprint")):
        raise ValueError("checkpoint manifest has no sha256 fingerprint")
    if "epoch_records" in doc:
        raise ValueError("checkpoint manifest carries its records inline")
    return doc


def _encode_text(text: Any) -> bytes:
    encoded: bytes = text.encode("utf-8")
    return encoded


def _decode_record(payload: bytes) -> Any:
    record = _decode_json(payload)
    if not isinstance(record, dict):
        raise ValueError("epoch record row is not a JSON object")
    return record


FLOAT_CODEC = PayloadCodec("float", _encode_float, _decode_float)
TRACE_CODEC = PayloadCodec("trace", _encode_canonical, _decode_trace)
ASSIGNMENT_CODEC = PayloadCodec(
    "assignment", _encode_assignment, _decode_assignment
)
JSON_CODEC = PayloadCodec("json", _encode_json, _decode_json)
#: ``checkpoint.manifest_json()``, decoded with a shape check.
CHECKPOINT_CODEC = PayloadCodec("manifest", _encode_manifest, _decode_manifest)
#: One epoch record's canonical JSON fragment (``record_json()``) as is.
RECORD_CODEC = PayloadCodec("record", _encode_text, _decode_record)

#: Namespace -> codec, for every persisted namespace.  ``dgraph`` is
#: deliberately absent: materialized layouts are cheap to rebuild and
#: expensive to serialize, so that cache stays in-process only.
CODECS = {
    "profile_trace": TRACE_CODEC,
    "machine_time": FLOAT_CODEC,
    "estimate": FLOAT_CODEC,
    "assignment": ASSIGNMENT_CODEC,
    "run_summary": JSON_CODEC,
    "stream_checkpoint": CHECKPOINT_CODEC,
    "stream_record": RECORD_CODEC,
}
