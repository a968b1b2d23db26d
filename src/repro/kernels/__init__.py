"""Numpy-vectorized kernels and memoisation for the repro pipeline.

CSR/CSC adjacency built once per graph, vectorized gather/apply/accounting
kernels, and content-keyed LRU caches for proxy profiling.  These are the
only implementation the engine, the applications and the partitioners
run.  The per-machine and per-vertex loops they replaced live on as
test-only references under ``tests/oracle/``, and every kernel here is
required to be **bit-identical** to its reference (see DESIGN.md §11 and
``tests/equivalence/``).
"""

from __future__ import annotations

from repro.kernels.cache import (
    LRUCache,
    cache_stats,
    clear_all_caches,
    graph_fingerprint,
)
from repro.kernels.csr import CSRAdjacency, concat_ranges, stable_machine_order

__all__ = [
    "LRUCache",
    "cache_stats",
    "clear_all_caches",
    "graph_fingerprint",
    "CSRAdjacency",
    "concat_ranges",
    "stable_machine_order",
]
