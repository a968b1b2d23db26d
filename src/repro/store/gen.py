"""Summary generation: the library half of the ``repro gen`` CLI.

Mirrors datacube-explorer's ``cubedash-gen --init --all`` flow: ``--init``
creates the store file atomically, ``--all`` replays a workload with the
store attached so every profile trace, priced machine time, runtime
estimate and partition assignment the replay computes is materialized as
a content-addressed row.  A later ``repro serve --store`` over the same
workload then starts warm: identical keys, identical bytes, no
recomputation (the differential store-equivalence suite pins this).

Warming is *replay-driven* rather than enumerate-driven on purpose: the
set of (app, graph, cluster, strategy) combinations worth materializing
is exactly the set a workload exercises, and replaying through the real
service guarantees the persisted rows carry the same keys the service
will look up later.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.store.codecs import CODECS
from repro.store.store import SummaryStore

__all__ = ["PERSISTED_NAMESPACES", "run_summary_key", "warm_store"]

#: Every namespace ``repro gen`` manages (`--refresh` validates against it).
PERSISTED_NAMESPACES: Tuple[str, ...] = tuple(sorted(CODECS))


def run_summary_key(
    clusters: Sequence[Any],
    workload: Any,
    policy_name: str,
    shards: Optional[int],
) -> str:
    """Canonical key text for one replay's run-summary row.

    Embeds the full identity of what ran: per-shard cluster keys (machine
    specs, network, perf params), the workload's seed and job count, the
    estimator policy and the shard count — so two different replays can
    never collide on a summary row.
    """
    from repro.kernels.cache import cluster_key

    return repr(
        (
            "run_summary",
            tuple(cluster_key(c) for c in clusters),
            int(workload.seed),
            int(workload.num_jobs),
            str(policy_name),
            int(shards) if shards is not None else 1,
        )
    )


def warm_store(
    store: SummaryStore,
    workload: Any,
    clusters: Sequence[Any],
    *,
    estimator: Optional[Any] = None,
    policy_name: str = "default",
    checkpoint_interval: int = 10,
) -> Dict[str, int]:
    """Replay ``workload`` with ``store`` attached, materializing rows.

    The replay is a :class:`~repro.federation.FederationService` over
    ``clusters``, whose shards share the attached store the same way a
    live ``serve --shards`` does.  One cluster replays in service mode,
    as plain ``serve`` does: embedded shard faults are ignored and the
    stored summary is the 1-shard service view.  The in-process caches
    are cleared first so every value the replay computes is actually
    written through.  Returns the per-namespace row counts *added* by
    this call.
    """
    from repro.faults.checkpoint import CheckpointPolicy
    from repro.faults.shards import ShardFaultSchedule
    from repro.federation import FederationService
    from repro.kernels.cache import attach_store, clear_all_caches, detach_store

    before = store.counts()
    clear_all_caches()
    attach_store(store)
    try:
        federation = FederationService(
            clusters,
            estimator=estimator,
            checkpoint=CheckpointPolicy(interval=checkpoint_interval),
        )
        if len(clusters) == 1:
            summary = federation.run_workload(
                workload, shard_faults=ShardFaultSchedule()
            ).service_view().summary()
        else:
            summary = federation.run_workload(workload).summary()
        store.put(
            "run_summary",
            run_summary_key(clusters, workload, policy_name, len(clusters)),
            CODECS["run_summary"].encode(summary),
        )
    finally:
        detach_store()
    after = store.counts()
    return {
        ns: after.get(ns, 0) - before.get(ns, 0)
        for ns in sorted(set(before) | set(after))
        if after.get(ns, 0) != before.get(ns, 0)
    }
