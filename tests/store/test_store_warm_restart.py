"""Warm restarts of a CCR-policy replay against the summary store.

A seeded 24-job CCR-policy workload (proxy profiling, estimation and
partitioning per job) is replayed twice per federation width: *cold*
against a freshly created store, then *warm* against the store the cold
run filled, with the in-process caches emptied in between to simulate a
process restart.  The shards share one store file, like a live
``serve --shards --store``.

The trace digest, the completed-job count, the store's row counts and
the warm run's per-namespace cache counters are deterministic and held
to the recorded values exactly.  Wall-clock time is not, but a warm
restart must be at least ``MIN_SPEEDUP`` times faster than the cold run
(recorded at 8.5–9.8x): a warm run that recomputes fails at once.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.core.estimators import ProxyCCREstimator
from repro.core.profiler import ProxyProfiler
from repro.core.proxy import ProxySet
from repro.federation import FederationService
from repro.kernels.cache import (
    attach_store,
    cache_stats,
    clear_all_caches,
    detach_store,
)
from repro.service import generate_workload
from repro.store import SummaryStore

SCALE = 0.01
NUM_JOBS = 24
MIN_SPEEDUP = 2.0

#: sha256 of the replay trace per federation width.
TRACE_SHA256 = {
    1: "d873089d1258590591b841eb10ba076e79e13684d19023cfc9681d3478b8d413",
    4: "ad9336884a4100f95251ed43c21aefa73332c980d6f265244aa010ac91294849",
}

#: Rows the cold run materializes, per namespace (the same at both widths).
STORE_ROWS = {
    "assignment": 17,
    "estimate": 17,
    "machine_time": 12,
    "profile_trace": 23,
}

#: The warm run's (hits, misses, store_hits) per persisted namespace.
WARM_CACHES = {
    "assignment": (24, 0, 17),
    "estimate": (17, 0, 17),
    "machine_time": (12, 0, 12),
    "profile_trace": (0, 0, 0),
}


def _cluster():
    return Cluster(
        [get_machine("m4.2xlarge"), get_machine("c4.2xlarge")],
        perf=PerformanceModel(model_scale=SCALE),
    )


def _replay(workload, num_shards):
    """One ``serve --policy ccr`` replay: (trace JSON, summary)."""
    proxies = ProxySet(num_vertices=max(1000, round(3_200_000 * SCALE)))
    estimator = ProxyCCREstimator(profiler=ProxyProfiler(proxies=proxies))
    result = FederationService(
        [_cluster() for _ in range(num_shards)], estimator=estimator
    ).run_workload(workload)
    if num_shards == 1:
        # As plain ``serve``: one cluster reports the service view.
        result = result.service_view()
    return result.trace_json(), result.summary()


@pytest.fixture(scope="module", params=sorted(TRACE_SHA256))
def restart(request, tmp_path_factory):
    num_shards = request.param
    workload = generate_workload(
        NUM_JOBS,
        seed=17,
        mean_interarrival_s=0.02,
        graph_sizes=(600, 900, 1200),
    )
    path = str(tmp_path_factory.mktemp("store") / "summaries.db")
    with SummaryStore.create(path) as store:
        clear_all_caches()
        attach_store(store)
        try:
            started = time.perf_counter()
            cold_trace, summary = _replay(workload, num_shards)
            cold_wall = time.perf_counter() - started
            clear_all_caches()
            started = time.perf_counter()
            warm_trace, _ = _replay(workload, num_shards)
            warm_wall = time.perf_counter() - started
            stats = cache_stats()
            rows = store.counts()
        finally:
            detach_store()
    return {
        "num_shards": num_shards,
        "cold_trace": cold_trace,
        "warm_trace": warm_trace,
        "summary": summary,
        "stats": stats,
        "rows": rows,
        "speedup": cold_wall / warm_wall,
    }


def test_warm_replay_is_byte_identical_to_cold(restart):
    assert restart["warm_trace"] == restart["cold_trace"]


def test_trace_digest_matches_recorded(restart):
    digest = hashlib.sha256(restart["cold_trace"].encode("utf-8")).hexdigest()
    assert digest == TRACE_SHA256[restart["num_shards"]]


def test_every_job_completes(restart):
    assert restart["summary"]["jobs_completed"] == NUM_JOBS


def test_store_rows_match_recorded(restart):
    assert restart["rows"] == STORE_ROWS


def test_warm_hit_patterns_match_recorded(restart):
    # Deterministic: a drift means the key model or the gating changed.
    stats = restart["stats"]
    measured = {
        name: (stats[name]["hits"], stats[name]["misses"], stats[name]["store_hits"])
        for name in WARM_CACHES
    }
    assert measured == WARM_CACHES


def test_warm_restart_is_at_least_2x_faster(restart):
    assert round(restart["speedup"], 2) >= MIN_SPEEDUP
