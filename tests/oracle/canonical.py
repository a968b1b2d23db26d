"""The canonical JSON form as one ``json.dumps`` call: the reference for
:mod:`repro.utils.canonical`.

Production walks dicts in Python and writes long lists a run at a time,
so that no encoding holds several times its text; this module keeps the
one-call definition the trusted bytes always had, so the differential
tests can compare the two byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Tuple

from repro.utils.canonical import Encoded

__all__ = ["reference_canonical_json", "reference_canonical_digest"]


def _decoded(value: Any) -> Any:
    """``value`` with each :class:`Encoded` leaf parsed back to its value."""
    if type(value) is Encoded:
        return json.loads(value.text)
    if isinstance(value, dict):
        return {k: _decoded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_decoded(v) for v in value]
    return value


def reference_canonical_json(value: Any) -> str:
    """Sorted keys, fixed separators, in one ``json.dumps`` call."""
    return json.dumps(_decoded(value), sort_keys=True, separators=(",", ":"))


def reference_canonical_digest(value: Any) -> Tuple[int, str]:
    """``(len, sha256 hex)`` of the UTF-8 :func:`reference_canonical_json`."""
    data = reference_canonical_json(value).encode("utf-8")
    return len(data), hashlib.sha256(data).hexdigest()
