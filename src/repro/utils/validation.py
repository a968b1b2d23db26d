"""Argument- and field-validation helpers.

Centralising the checks keeps error messages consistent ("<name> must be
positive, got <value>") and keeps the numeric kernels free of boilerplate.
The ``check_*`` helpers validate library arguments, raise ``ValueError``
and return the validated value so they compose in assignments.  The
``require_*`` helpers validate fields read from untrusted documents (fault
schedules, workloads, mutation streams, CCR pools) and raise the loader's
own typed error class, so every loader words a bad field the same way.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Optional, Type, Union

import numpy as np

__all__ = [
    "check_positive",
    "check_probability",
    "check_in_range",
    "check_array_1d",
    "require_integer",
    "require_finite",
    "require_real",
    "require_string",
    "require_array",
    "require_seed",
]

Number = Union[int, float]


def check_positive(name: str, value: Number, strict: bool = True) -> Number:
    """Validate that ``value`` is positive (strictly by default)."""
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: Number) -> Number:
    """Validate that ``value`` lies in ``[0, 1]``."""
    if not np.isfinite(value) or not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return value


def check_in_range(
    name: str,
    value: Number,
    lo: Number,
    hi: Number,
    inclusive: bool = True,
) -> Number:
    """Validate that ``value`` lies within ``[lo, hi]`` (or ``(lo, hi)``)."""
    if inclusive:
        ok = lo <= value <= hi
        bounds = f"[{lo}, {hi}]"
    else:
        ok = lo < value < hi
        bounds = f"({lo}, {hi})"
    if not np.isfinite(value) or not ok:
        raise ValueError(f"{name} must be in {bounds}, got {value!r}")
    return value


def check_array_1d(
    name: str, arr: np.ndarray, dtype: Union[type, str, None] = None
) -> np.ndarray:
    """Coerce ``arr`` into a 1-D ndarray (optionally of ``dtype``)."""
    out = np.asarray(arr, dtype=dtype)
    if out.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {out.shape}")
    return out


def require_integer(value: object, what: str, error: Type[Exception]) -> None:
    """Reject an index, count or id that is not an integer.

    ``numbers.Integral`` admits numpy integers; ``bool`` is refused
    although it subclasses ``int``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer, got {value!r}")


def require_finite(value: object, what: str, error: Type[Exception]) -> None:
    """Reject a factor, time or ratio that is not a finite real number.

    An integer too large for a float (past about 1e308) is not finite
    either: ``math.isfinite`` would overflow converting it.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        finite = False
    else:
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
    if not finite:
        raise error(f"{what} must be a finite number, got {value!r}")


def require_real(value: object, what: str, error: Type[Exception]) -> None:
    """Reject a value that is not a real number, finite or not (``bool``
    is refused): for fields that round-trip whatever float was saved."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a number, got {value!r}")


def require_string(value: object, what: str, error: Type[Exception]) -> None:
    """Reject a name or digest that is not text."""
    if not isinstance(value, str):
        raise error(f"{what} must be a string, got {type(value).__name__}")


def require_array(
    value: object,
    what: str,
    error: Type[Exception],
    item: Optional[Callable[[object, str, Type[Exception]], None]] = None,
) -> None:
    """Reject a field that is not an array, or one holding an entry that
    the ``item`` check (one of these ``require_*`` helpers) rejects."""
    if not isinstance(value, (list, tuple)):
        raise error(f"{what} must be an array, got {type(value).__name__}")
    if item is not None:
        # One C-speed pass over the entries' exact types settles the
        # common all-valid array; anything else (``bool`` included, since
        # ``type(True) is bool``) takes the per-entry check, so the first
        # bad entry is reported as before.
        plain = _PLAIN_TYPES.get(item)
        if plain is not None and set(map(type, value)) <= plain:
            return
        entries = f"{what} entry"
        for entry in value:
            item(entry, entries, error)


#: Entry types that :func:`require_array` passes for an ``item`` check
#: without calling it: exactly the types the check accepts.
_PLAIN_TYPES = {
    require_integer: frozenset({int}),
    require_real: frozenset({int, float}),
}


def require_seed(value: object, what: str, error: Type[Exception]) -> None:
    """Reject a seed that is neither ``None`` nor a plain ``int``."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise error(f"{what} must be an integer or null, got {value!r}")
