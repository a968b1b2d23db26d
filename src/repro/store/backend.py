"""Cache backends: the interface the kernel caches program against.

PR 4 hard-wired every kernel cache to an in-process LRU, which made warm
state die with the process.  This module teases the interface out into a
:class:`CacheBackend` protocol with three implementations:

* :class:`LRUCache` — the original in-process least-recently-used map
  (moved here from :mod:`repro.kernels.cache`, which re-exports it).
* :class:`repro.store.store.SummaryStore` namespaces — persistent sqlite
  rows (exposed through this protocol by :class:`LayeredCache`).
* :class:`LayeredCache` — an LRU front over an optional attached store
  namespace: reads fall through L1 → store and promote on hit, writes go
  through to both.  With no store attached it behaves exactly like the
  PR 4 LRU, byte for byte, counter for counter.

One invariant carries over unchanged from PR 4 (DESIGN.md §11/§14):
every cached value is a deterministic function of its key, so a hit —
L1 or store — returns exactly the bytes a miss would recompute.  Observed
and unobserved runs read and write the backends alike.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Protocol, runtime_checkable

from repro.store.codecs import PayloadCodec

__all__ = ["CacheBackend", "LRUCache", "LayeredCache"]

_MISSING = object()


@runtime_checkable
class CacheBackend(Protocol):
    """What the kernel call sites require of a cache.

    ``get`` returns ``None`` on miss (cached values are never ``None``),
    ``put`` stores unconditionally, ``clear`` empties the volatile state,
    and ``stats`` reports at least ``size``/``hits``/``misses`` counters.
    """

    def get(self, key: Hashable) -> Optional[Any]: ...

    def put(self, key: Hashable, value: Any) -> None: ...

    def clear(self) -> None: ...

    def stats(self) -> Dict[str, int]: ...

    def __len__(self) -> int: ...


class LRUCache:
    """A small least-recently-used mapping with hit/miss accounting."""

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value or ``None``; refreshes recency on hit."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        return {"size": len(self._data), "hits": self.hits, "misses": self.misses}


class LayeredCache:
    """An LRU front over an optional persistent store namespace.

    Detached (the default, and the state :func:`clear` leaves untouched),
    this is behaviourally identical to :class:`LRUCache` — the PR 4
    semantics.  With a store attached via :meth:`attach`:

    * a miss in L1 falls through to the store namespace; a store hit is
      decoded, promoted into L1 and counted as a hit (plus
      ``store_hits``); a row that does not decode is quarantined and
      counted as a miss;
    * every put writes through to the store, so warm state survives the
      process and an L1 *eviction* no longer loses the entry — the
      eviction-coordination story the federation's shared shards needed;
    * :meth:`clear` empties only L1 (test isolation and cold-start
      benchmarks must not wipe the materialized store).

    The codec is fixed per cache (one namespace, one value type); caches
    without a codec (``namespace=None``) never touch the store.
    """

    def __init__(
        self,
        maxsize: int,
        namespace: Optional[str] = None,
        codec: Optional[PayloadCodec] = None,
    ):
        if (namespace is None) != (codec is None):
            raise ValueError("namespace and codec must be given together")
        self._l1 = LRUCache(maxsize)
        self.namespace = namespace
        self._codec = codec
        self._store: Optional[Any] = None
        self.store_hits = 0

    # -- store attachment ---------------------------------------------- #

    def attach(self, store: Any) -> None:
        """Back this cache with a store namespace (no-op codec-less)."""
        if self.namespace is not None:
            self._store = store

    def detach(self) -> None:
        self._store = None

    @property
    def attached(self) -> bool:
        return self._store is not None

    # -- CacheBackend -------------------------------------------------- #

    @property
    def maxsize(self) -> int:
        return self._l1.maxsize

    @property
    def hits(self) -> int:
        return self._l1.hits

    @property
    def misses(self) -> int:
        return self._l1.misses

    def get(self, key: Hashable) -> Optional[Any]:
        value = self._l1._data.get(key, _MISSING)
        if value is not _MISSING:
            self._l1._data.move_to_end(key)
            self._l1.hits += 1
            return value
        if self._store is not None and self._codec is not None:
            assert self.namespace is not None
            decoded = self._store.get_decoded(
                self.namespace, repr(key), self._codec
            )
            if decoded is not None:
                self._l1.put(key, decoded)
                self._l1.hits += 1
                self.store_hits += 1
                return decoded
        self._l1.misses += 1
        return None

    def put(self, key: Hashable, value: Any) -> None:
        self._l1.put(key, value)
        if self._store is not None and self._codec is not None:
            assert self.namespace is not None
            self._store.put(self.namespace, repr(key), self._codec.encode(value))

    def discard(self, key: Hashable) -> None:
        """Drop ``key``'s in-process entry, if it has one.

        Only L1 memory is released: a store row under ``key`` stays, and
        no hit, miss or ``store_hits`` counter moves.  A later ``get``
        counts as it would for any entry L1 no longer holds.
        """
        self._l1._data.pop(key, None)

    def clear(self) -> None:
        """Empty the in-process layer only; the store is never cleared."""
        self._l1.clear()
        self.store_hits = 0

    def __len__(self) -> int:
        return len(self._l1)

    def stats(self) -> Dict[str, int]:
        out = self._l1.stats()
        out["store_hits"] = self.store_hits
        return out
