"""Regressions at the cache/observer boundary used by the job service.

Three contracts the service leans on:

* installing an observer does not change how the kernel caches are
  used: an observed call looks up and fills the same entries an
  unobserved one does, and returns the same bytes — cached work is
  served, not re-executed to be watched;
* the estimate cache key embeds the full cluster identity, so services
  fronting different clusters in one process can never trade
  projections;
* the ``trace`` cache behind ``execute_partition`` serves observed and
  unobserved runs alike, and a replay served from it is byte-identical
  to an observed one.
"""

from repro import obs
from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.federation import FederationService
from repro.graph.digraph import DiGraph
from repro.apps import make_app
from repro.engine.runtime import GraphProcessingSystem
from repro.kernels.cache import (
    cache_stats,
    clear_all_caches,
    estimate_cache,
    profile_trace_cache,
)
from repro.partition import make_partitioner
from repro.powerlaw.generator import generate_power_law_graph
from repro.service import GraphSpec, JobRequest, Workload
from repro.service.estimate import projected_seconds


def make_cluster(scale: float = 0.01, small: bool = False) -> Cluster:
    machines = (
        [get_machine("c4.xlarge"), get_machine("c4.2xlarge")]
        if small
        else [get_machine("m4.2xlarge"), get_machine("c4.2xlarge")]
    )
    return Cluster(machines, perf=PerformanceModel(model_scale=scale))


def make_graph(seed: int = 0) -> DiGraph:
    return generate_power_law_graph(num_vertices=300, alpha=2.1, seed=seed)


class TestObserverGate:
    def test_observed_call_is_a_cache_hit(self):
        cluster = make_cluster(0.01)
        graph = make_graph()

        cold = projected_seconds(cluster, "pagerank", graph)
        warm = projected_seconds(cluster, "pagerank", graph)
        assert warm == cold
        stats = estimate_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

        # Observed call: served from the warm entry, same number.
        with obs.enabled(obs.Observer()):
            observed = projected_seconds(cluster, "pagerank", graph)
        assert observed == cold
        assert estimate_cache.stats()["hits"] == stats["hits"] + 1
        assert estimate_cache.stats()["misses"] == stats["misses"]

        # Uninstalled again: the entry keeps serving.
        after = projected_seconds(cluster, "pagerank", graph)
        assert after == cold
        assert estimate_cache.stats()["hits"] == stats["hits"] + 2
        assert estimate_cache.stats()["misses"] == stats["misses"]

    def test_observed_run_records_profile_spans(self):
        cluster = make_cluster(0.01)
        graph = make_graph()
        dark = projected_seconds(cluster, "pagerank", graph)

        # Cold caches: the observed call profiles, so the engine spans
        # are in the stream.
        clear_all_caches()
        cold = obs.Observer()
        with obs.enabled(cold):
            assert projected_seconds(cluster, "pagerank", graph) == dark
        assert cold.tracer.named("engine/run")

        # Warm caches: nothing is re-executed, so nothing is traced.
        warm = obs.Observer()
        with obs.enabled(warm):
            assert projected_seconds(cluster, "pagerank", graph) == dark
        assert not warm.spans

    def test_profile_trace_cache_shared_across_clusters(self):
        # The single-machine profile trace depends only on (app, graph),
        # so two clusters may share it; only the estimate is per-cluster.
        graph = make_graph()
        projected_seconds(make_cluster(), "pagerank", graph)
        trace_misses = profile_trace_cache.stats()["misses"]
        projected_seconds(make_cluster(small=True), "pagerank", graph)
        assert profile_trace_cache.stats()["misses"] == trace_misses
        assert profile_trace_cache.stats()["hits"] >= 1


class TestTraceCacheGate:
    def test_observed_runtime_hits_trace_cache(self):
        cluster = make_cluster(0.01)
        graph = make_graph()
        system = GraphProcessingSystem(cluster)
        app, partitioner = make_app("pagerank"), make_partitioner("hybrid")
        cold = system.run(app, graph, partitioner)
        stats = cache_stats()["trace"]
        assert (stats["hits"], stats["misses"]) == (0, 1)

        observer = obs.Observer()
        with obs.enabled(observer):
            observed = system.run(app, graph, partitioner)
        assert observed.trace is cold.trace
        assert cache_stats()["trace"]["hits"] == stats["hits"] + 1
        assert cache_stats()["trace"]["misses"] == stats["misses"]
        # Served from the cache: the engine did not run again.
        assert not observer.tracer.named("engine/run")
        assert observed.trace.canonical_json() == cold.trace.canonical_json()

        # With the caches cleared the observed run executes, and traces
        # the engine, with the same bytes.
        clear_all_caches()
        observer = obs.Observer()
        with obs.enabled(observer):
            fresh = system.run(app, graph, partitioner)
        assert observer.tracer.named("engine/run")
        assert fresh.trace.canonical_json() == cold.trace.canonical_json()

    def test_identical_jobs_replay_like_an_observed_run(self):
        n = 5
        workload = Workload(
            jobs=tuple(
                JobRequest(
                    job_id=f"j{i}",
                    app="pagerank",
                    submit_s=10.0 * i,
                    graph=GraphSpec(vertices=300, alpha=2.1, seed=0),
                )
                for i in range(n)
            ),
            seed=0,
        )
        cluster = make_cluster(0.01)
        cached = FederationService(
            [cluster]
        ).run_workload(workload).trace_json()
        # One miss for the service's single-machine projection, one for
        # the first run; every later identical job is a hit.
        dark = cache_stats()["trace"]
        assert (dark["hits"], dark["misses"]) == (n - 1, 2)

        clear_all_caches()
        with obs.enabled(obs.Observer()):
            observed = FederationService(
                [cluster]
            ).run_workload(workload).trace_json()
        assert observed == cached
        # The observed replay uses the cache exactly as the dark one did.
        assert cache_stats()["trace"] == dark


class TestObserverGateWithStore:
    def test_observed_run_reads_the_attached_store(self, tmp_path):
        """An observed run reads the summary store like any other run,
        and computes the same number."""
        from repro.kernels.cache import attach_store, detach_store
        from repro.store import SummaryStore

        cluster = make_cluster(0.01)
        graph = make_graph()
        with SummaryStore.create(str(tmp_path / "s.db")) as store:
            attach_store(store)
            cold = projected_seconds(cluster, "pagerank", graph)
            rows_before = store.counts()
            assert sum(rows_before.values()) >= 1  # store was populated

            clear_all_caches()
            with obs.enabled(obs.Observer()):
                observed = projected_seconds(cluster, "pagerank", graph)
            assert observed == cold
            # Served from the store row: one store read, no new rows.
            assert estimate_cache.stats()["store_hits"] == 1
            assert store.counts() == rows_before
            detach_store()


class TestCrossClusterIsolation:
    def test_estimates_never_leak_between_clusters(self):
        graph = make_graph()
        fast = projected_seconds(make_cluster(), "pagerank", graph)
        slow = projected_seconds(make_cluster(small=True), "pagerank", graph)
        assert fast != slow
        assert estimate_cache.stats()["size"] == 2
        # Re-asking either cluster returns its own number, not the
        # most recently cached one.
        assert projected_seconds(make_cluster(), "pagerank", graph) == fast
        assert (
            projected_seconds(make_cluster(small=True), "pagerank", graph)
            == slow
        )

    def test_two_services_on_different_clusters_disagree(self):
        workload = Workload(
            jobs=(
                JobRequest(
                    job_id="j",
                    app="pagerank",
                    graph=GraphSpec(vertices=300, alpha=2.1, seed=0),
                ),
            ),
            seed=0,
        )
        fast = FederationService([make_cluster()]).run_workload(workload)
        slow = FederationService(
            [make_cluster(small=True)]
        ).run_workload(workload)
        a, b = fast.records[0], slow.records[0]
        assert a.status == b.status == "completed"
        # A leaked estimate or priced run would make these equal.
        assert a.charged_seconds != b.charged_seconds
        assert a.end_s != b.end_s

    def test_warm_cache_does_not_change_service_trace(self):
        workload = Workload(
            jobs=(
                JobRequest(
                    job_id="j",
                    app="pagerank",
                    graph=GraphSpec(vertices=300, alpha=2.1, seed=0),
                ),
            ),
            seed=0,
        )
        cluster = make_cluster(0.01)
        cold = FederationService([cluster]).run_workload(workload).trace_json()
        warm = FederationService([cluster]).run_workload(workload).trace_json()
        assert cold == warm
