"""The canonical JSON form: the one definition of the trusted bytes.

Golden traces, streaming traces, checkpoint fingerprints, the
content-addressed store rows and :meth:`MutationStream.fingerprint
<repro.streaming.mutations.MutationStream.fingerprint>` are all this
text: sorted keys, ``(",", ":")`` separators, ``float.__repr__`` for
floats, ``NaN``/``Infinity`` for the non-finite ones and ``\\uXXXX``
escapes for non-ASCII text.  It is byte for byte the text of
``json.dumps(value, sort_keys=True, separators=(",", ":"))`` for any
value ``json`` accepts, so nothing built on it moves.

The walker recurses into dicts in Python, in sorted key order, and
writes a list longer than :data:`_LIST_RUN` items as runs of one
``json`` call each.  Everything else (scalars, short lists, the dicts
inside lists, a dict with a key that is not a string) goes to one
C-speed ``json`` call.  ``json`` holds every
number's text until it joins them, so a long array encoded whole
would cost several times its own text; a run at a time costs one run.

Text that is already canonical (a checkpoint's cached epoch-record
fragments) enters as an :class:`Encoded` leaf, which the walker emits
verbatim wherever it sits.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "Encoded",
    "jsonable",
    "canonical_pieces",
    "canonical_json",
    "canonical_digest",
]

#: Items per ``json`` call when a list is written in runs.
_LIST_RUN = 512

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class Encoded:
    """Canonical JSON text, emitted verbatim by the walker.

    Not a ``str``: ``json`` refuses it, so a list holding one is walked
    item by item instead of quoting the text as a string.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def jsonable(value: Any) -> Any:
    """Plain JSON types from result values (numpy arrays and scalars).

    Dict keys become strings, sorted as strings: deterministic even for
    int-keyed dicts, and the order matches the ``str(k)`` output key.
    """
    if isinstance(value, dict):
        return {
            str(k): jsonable(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        # tolist() already yields plain Python scalars (a bare scalar for
        # a 0-d array); only object and structured arrays can hold
        # containers that still need converting.
        if value.dtype.kind in "OV":
            return jsonable(value.tolist())
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def canonical_pieces(value: Any) -> Iterator[str]:
    """The canonical text of ``value``, in order, a piece at a time.

    Joined, the pieces are :func:`canonical_json`.
    """
    if type(value) is Encoded:
        yield value.text
    elif isinstance(value, dict) and value and all(
        isinstance(key, str) for key in value
    ):
        for index, key in enumerate(sorted(value)):
            yield ("," if index else "{") + _ENCODER.encode(key) + ":"
            yield from canonical_pieces(value[key])
        yield "}"
    elif isinstance(value, (list, tuple)):
        yield from _array(value)
    else:
        # A scalar, an empty dict, or one whose keys json must coerce
        # (and order as it does): one call.
        yield _ENCODER.encode(value)


def _array(value: Any) -> Iterator[str]:
    if len(value) <= _LIST_RUN:
        text = _encode_run(value)
        if text is not None:
            yield text
            return
    yield "["
    for start in range(0, len(value), _LIST_RUN):
        if start:
            yield ","
        run = value[start:start + _LIST_RUN]
        text = _encode_run(run)
        if text is not None:
            yield text[1:-1]
            continue
        for index, item in enumerate(run):
            if index:
                yield ","
            yield from canonical_pieces(item)
    yield "]"


def _encode_run(items: Any) -> Optional[str]:
    """``json``'s text of ``items``, or ``None`` when an :class:`Encoded`
    leaf sits inside and the items must be walked."""
    try:
        return _ENCODER.encode(items)
    except TypeError:
        return None


def canonical_json(value: Any) -> str:
    """Deterministic single-line JSON (sorted keys, fixed separators)."""
    return "".join(canonical_pieces(value))


def canonical_digest(value: Any) -> Tuple[int, str]:
    """``(len, sha256 hex)`` of the UTF-8 canonical text, hashed piece by
    piece without building it."""
    digest = hashlib.sha256()
    size = 0
    for piece in canonical_pieces(value):
        data = piece.encode("utf-8")
        digest.update(data)
        size += len(data)
    return size, digest.hexdigest()
