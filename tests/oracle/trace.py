"""Element-wise result conversion: the reference for ``jsonable``.

Production (``repro.utils.canonical.jsonable``, which trace results and
span attributes share) hands a numeric ndarray's
``tolist()`` straight to the caller, because ``tolist()`` already yields
plain Python scalars; only object and structured arrays recurse
(DESIGN.md §17).  :func:`reference_jsonable` keeps the literal recursion,
one call per element, so the differential tests can compare the two.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["reference_jsonable"]


def reference_jsonable(value: Any) -> Any:
    """Plain JSON types from result values, one recursion per element."""
    if isinstance(value, dict):
        return {
            str(k): reference_jsonable(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [reference_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    return value
