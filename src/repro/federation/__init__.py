"""Federated multi-scheduler service (scale-out of :mod:`repro.service`).

N scheduler shards front M heterogeneous clusters behind a consistent-hash
ring keyed by graph content fingerprints.  All shards share one seeded
simulated clock, so the federation keeps the library's byte-identical
replay contract while adding shard-level fault tolerance: seeded shard
crash/partition/slowdown schedules (:mod:`repro.faults.shards`),
append-only per-shard job journals with deterministic crash recovery
(:mod:`repro.federation.journal`), ring-based failover, cross-shard work
stealing, and federation-level admission control composing per-cluster
circuit breakers into global backpressure.

:class:`FederationService` is the library's one public replay.  With one
cluster and an empty shard-fault schedule it is the single job service:
:meth:`FederationResult.service_view` gives that replay's service trace,
which the compat golden pins byte for byte.
"""

from repro.federation.federation import (
    FederationEvent,
    FederationPolicy,
    FederationResult,
    FederationService,
    ShardReport,
)
from repro.federation.journal import JournalEntry, ShardJournal
from repro.federation.ring import HashRing

__all__ = [
    "HashRing",
    "JournalEntry",
    "ShardJournal",
    "FederationPolicy",
    "FederationEvent",
    "ShardReport",
    "FederationResult",
    "FederationService",
]
