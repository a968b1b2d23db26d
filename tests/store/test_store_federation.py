"""Store semantics across federation shards (satellite 4, ISSUE 7).

Shards share the process-level kernel caches, so one attached store is
automatically the *shared warm tier* for every shard.  These regressions
pin the contract that closes the latent `projected_seconds` gap:

* an L1 eviction no longer loses a priced estimate — the store serves it
  back (eviction coordination);
* shards warm each other through the shared store, byte-identically;
* priced times stay isolated per cluster identity: shards fronting
  different clusters can never trade estimates through the store.
"""

from __future__ import annotations

import pytest

from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.federation import FederationService
from repro.kernels.cache import (
    attach_store,
    clear_all_caches,
    detach_store,
    estimate_cache,
)
from repro.powerlaw.generator import generate_power_law_graph
from repro.service import generate_workload
from repro.service.estimate import projected_seconds


def _cluster(kind: str = "mixed", scale: float = 0.01) -> Cluster:
    machines = {
        "mixed": ["m4.2xlarge", "c4.2xlarge"],
        "compute": ["c4.xlarge", "c4.2xlarge"],
    }[kind]
    return Cluster(
        [get_machine(name) for name in machines],
        perf=PerformanceModel(model_scale=scale),
    )


@pytest.fixture
def workload():
    return generate_workload(num_jobs=6, seed=3)


def test_estimate_survives_l1_eviction_via_store(store):
    """The latent-gap regression: an evicted projected_seconds entry is
    re-served from the store, not recomputed into a fresh miss."""
    graph = generate_power_law_graph(num_vertices=250, alpha=2.1, seed=1)
    cluster = _cluster()
    attach_store(store)
    cold = projected_seconds(cluster, "pagerank", graph)

    # Simulate the eviction: the estimate cache's in-process layer is
    # emptied (clear() touches L1 only — exactly what an LRU eviction
    # does to one row), while the store keeps the materialized value.
    estimate_cache.clear()
    warm = projected_seconds(cluster, "pagerank", graph)
    detach_store()
    assert warm == cold
    assert estimate_cache.stats()["store_hits"] == 1
    # Served, not recomputed: no second miss was recorded.
    assert estimate_cache.stats()["misses"] == 0


def test_shards_share_one_warm_store(store, workload):
    """A federation warmed by a previous replay starts warm on every
    shard — and replays byte-identically."""
    clusters = [_cluster(), _cluster()]
    cold = FederationService(clusters).run_workload(workload).trace_json()

    clear_all_caches()
    attach_store(store)
    populate = FederationService(clusters).run_workload(workload).trace_json()

    clear_all_caches()  # fresh process, warm store
    warm = FederationService(clusters).run_workload(workload).trace_json()
    store_hits = estimate_cache.stats()["store_hits"]
    detach_store()

    assert cold == populate == warm
    assert store_hits >= 1


def test_single_shard_warm_ledger_matches_cold(store, workload):
    """The 1-shard service holds its ledger under a warm store too: a
    replay served from the store charges what a cold one computes."""
    cold = FederationService([_cluster()]).run_workload(workload)
    clear_all_caches()
    attach_store(store)
    FederationService([_cluster()]).run_workload(workload)  # populate
    clear_all_caches()
    warm = FederationService([_cluster()]).run_workload(workload)
    store_hits = estimate_cache.stats()["store_hits"]
    detach_store()
    assert [
        (r.job_id, r.status, r.charged_seconds) for r in warm.records
    ] == [(r.job_id, r.status, r.charged_seconds) for r in cold.records]
    assert store_hits >= 1


def test_priced_times_isolated_per_cluster_through_store(store):
    """Two shards fronting different clusters share the store file but
    never each other's priced rows."""
    graph = generate_power_law_graph(num_vertices=250, alpha=2.1, seed=1)
    mixed, compute = _cluster("mixed"), _cluster("compute")

    attach_store(store)
    a = projected_seconds(mixed, "pagerank", graph)
    b = projected_seconds(compute, "pagerank", graph)
    assert a != b

    # Fresh L1s: each cluster gets *its own* row back from the store.
    clear_all_caches()
    assert projected_seconds(mixed, "pagerank", graph) == a
    assert projected_seconds(compute, "pagerank", graph) == b
    assert estimate_cache.stats()["store_hits"] == 2
    detach_store()

    # Two distinct estimate rows were materialized, not one shared row.
    assert store.counts()["estimate"] == 2


def test_heterogeneous_shards_warm_replay_identical(store, workload):
    """Different per-shard clusters: warm federation replay still
    byte-identical to cold."""
    clusters = [_cluster("mixed"), _cluster("compute")]
    cold = FederationService(clusters).run_workload(workload).trace_json()

    clear_all_caches()
    attach_store(store)
    FederationService(clusters).run_workload(workload)
    clear_all_caches()
    warm = FederationService(clusters).run_workload(workload).trace_json()
    detach_store()
    assert cold == warm
