"""Materialized summary store (PR 7).

Content-addressed sqlite persistence for the kernel caches: proxy
profile traces, priced machine times, runtime estimates, partition
assignments and per-run metric summaries, keyed by sha256 graph
fingerprints plus cluster/strategy key components.

* :mod:`repro.store.backend` — the :class:`CacheBackend` protocol and
  the in-process / layered implementations the kernel caches use;
* :mod:`repro.store.codecs` — one deterministic byte codec per
  namespace;
* :mod:`repro.store.store` — the sqlite file itself (schema versioning,
  atomic init, transactional writes, quarantine-and-recompute);
* :mod:`repro.store.gen` — warmers behind the ``repro gen`` CLI.

This package init stays import-light (no engine / kernels imports):
:mod:`repro.kernels.cache` imports :mod:`repro.store.backend`, so
pulling heavier modules in here would create a cycle.
"""

from repro.store.backend import CacheBackend, LayeredCache, LRUCache
from repro.store.codecs import CODECS, PayloadCodec
from repro.store.store import SCHEMA_VERSION, SummaryStore

__all__ = [
    "CacheBackend",
    "CODECS",
    "LayeredCache",
    "LRUCache",
    "PayloadCodec",
    "SCHEMA_VERSION",
    "SummaryStore",
]
