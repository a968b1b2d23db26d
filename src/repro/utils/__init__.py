"""Shared low-level utilities.

Small, dependency-free helpers used across the library:

* :mod:`repro.utils.rng` -- deterministic random number generation and
  vectorised 64-bit mixing hashes (the partitioners hash millions of edges,
  so the hash must be a vectorised NumPy kernel, not a Python loop).
* :mod:`repro.utils.stats` -- generalised harmonic numbers, error metrics
  and summary statistics used by the power-law machinery and the
  experiment harness.
* :mod:`repro.utils.tables` -- plain-text table rendering for experiment
  output (the same rows/series the paper reports).
* :mod:`repro.utils.validation` -- argument checking helpers that raise
  consistent, actionable errors.
"""

from repro.utils.rng import (
    mix64,
    hash_edges,
    hash_to_unit,
    make_rng,
    spawn_rngs,
)
from repro.utils.stats import (
    generalized_harmonic,
    geometric_mean,
    mean_absolute_pct_error,
    pct_error,
    summarize,
)
from repro.utils.tables import format_table
from repro.utils.validation import (
    check_positive,
    check_probability,
    check_in_range,
    check_array_1d,
)

__all__ = [
    "mix64",
    "hash_edges",
    "hash_to_unit",
    "make_rng",
    "spawn_rngs",
    "generalized_harmonic",
    "geometric_mean",
    "mean_absolute_pct_error",
    "pct_error",
    "summarize",
    "format_table",
    "check_positive",
    "check_probability",
    "check_in_range",
    "check_array_1d",
]
