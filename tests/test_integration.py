"""Integration tests: the subsystems composed as the paper composes them.

These exercise the full pipelines — proxy profiling feeding partitioning
feeding execution — and assert the paper's qualitative claims at test
scale (each claim is checked at evaluation scale by ``tests/paper/``).
"""

import numpy as np
import pytest

from repro.apps.registry import DEFAULT_APPS, make_app
from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.core.estimators import (
    ProxyCCREstimator,
    ThreadCountEstimator,
    UniformEstimator,
)
from repro.core.flow import ProxyGuidedSystem
from repro.core.profiler import ProxyProfiler
from repro.core.proxy import ProxySet
from repro.engine.runtime import GraphProcessingSystem
from repro.graph.datasets import load_dataset
from repro.partition import make_partitioner

SCALE = 0.002


@pytest.fixture(scope="module")
def perf():
    return PerformanceModel(model_scale=SCALE)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("citation", scale=SCALE)


@pytest.fixture(scope="module")
def proxies():
    return ProxySet(num_vertices=round(3_200_000 * SCALE), seed=100)


class TestCase1Pipeline:
    """Same-thread-count EC2 cluster: only CCR sees the heterogeneity."""

    @pytest.fixture(scope="class")
    def cluster(self, perf):
        return Cluster(
            [get_machine("m4.2xlarge")] * 2 + [get_machine("c4.2xlarge")] * 2,
            perf=perf,
        )

    def test_prior_work_equals_default_here(self, cluster):
        prior = ThreadCountEstimator().weights(cluster, "pagerank")
        default = UniformEstimator().weights(cluster, "pagerank")
        assert np.allclose(prior, default)

    def test_ccr_shifts_load_to_c4(self, cluster, graph, proxies):
        est = ProxyCCREstimator(profiler=ProxyProfiler(proxies=proxies))
        w = est.weights(cluster, "pagerank")
        assert w[2] > w[0] and w[3] > w[1]

    def test_ccr_run_not_slower_than_default(self, cluster, graph, proxies):
        est = ProxyCCREstimator(profiler=ProxyProfiler(proxies=proxies))
        sys_ = GraphProcessingSystem(cluster)
        part = make_partitioner("hybrid", seed=4)
        app = make_app("connected_components")
        default = sys_.run(app, graph, part).report
        guided = sys_.run(
            app, graph, part, weights=est.weights(cluster, "connected_components")
        ).report
        assert guided.runtime_seconds <= default.runtime_seconds * 1.05


class TestCase2Pipeline:
    """Thread-count-heterogeneous local cluster: everyone beats default,
    CCR beats prior."""

    @pytest.fixture(scope="class")
    def cluster(self, perf):
        from repro.experiments.common import case2_machines

        return Cluster(case2_machines(), perf=perf)

    def test_orderings(self, cluster, graph, proxies):
        sys_ = GraphProcessingSystem(cluster)
        part = make_partitioner("hybrid", seed=4)
        app_name = "pagerank"
        runtimes = {}
        for est in (
            UniformEstimator(),
            ThreadCountEstimator(),
            ProxyCCREstimator(profiler=ProxyProfiler(proxies=proxies)),
        ):
            w = est.weights(cluster, app_name)
            runtimes[est.name] = sys_.run(
                make_app(app_name), graph, part, weights=w
            ).report.runtime_seconds
        assert runtimes["prior_work"] < runtimes["default"]
        assert runtimes["proxy_ccr"] < runtimes["default"]

    def test_energy_savings_from_balance(self, cluster, graph, proxies):
        sys_ = GraphProcessingSystem(cluster)
        part = make_partitioner("hybrid", seed=4)
        est = ProxyCCREstimator(profiler=ProxyProfiler(proxies=proxies))
        default = sys_.run(make_app("pagerank"), graph, part).report
        guided = sys_.run(
            make_app("pagerank"), graph, part,
            weights=est.weights(cluster, "pagerank"),
        ).report
        assert guided.energy_joules < default.energy_joules


class TestProfilingReuse:
    def test_pool_persists_and_reloads(self, tmp_path, perf, proxies):
        """The offline pool round-trips through disk and drives the flow."""
        cluster = Cluster(
            [get_machine("c4.xlarge"), get_machine("c4.2xlarge")], perf=perf
        )
        report = ProxyProfiler(proxies=proxies, apps=("pagerank",)).profile(cluster)
        path = tmp_path / "pool.json"
        report.pool.save(path)

        from repro.core.ccr import CCRPool

        loaded = CCRPool.load(path)
        table = loaded.get("pagerank")
        est = ProxyCCREstimator(pool=loaded)
        w = est.weights(cluster, "pagerank")
        assert w[1] > w[0]
        # The loaded table is served as is, not re-profiled.
        assert est.pool.get("pagerank") is table

    def test_all_four_apps_profile(self, perf, proxies):
        cluster = Cluster(
            [get_machine("c4.xlarge"), get_machine("c4.2xlarge")], perf=perf
        )
        pool = ProxyProfiler(proxies=proxies, apps=DEFAULT_APPS).profile(cluster).pool
        assert set(pool.apps()) == set(DEFAULT_APPS)


class TestProxyGuidedSystemEndToEnd:
    def test_all_apps_all_algorithms(self, perf, graph, proxies):
        """Every (app, partitioner) pair runs through the full flow."""
        cluster = Cluster(
            [get_machine("m4.2xlarge")] * 2 + [get_machine("c4.2xlarge")] * 2,
            perf=perf,
        )
        est = ProxyCCREstimator(profiler=ProxyProfiler(proxies=proxies))
        system = ProxyGuidedSystem(cluster, estimator=est)
        for app in DEFAULT_APPS:
            for alg in ("random_hash", "grid", "ginger"):
                out = system.process(app, graph, partitioner=alg)
                assert out.report.runtime_seconds > 0
                assert out.report.num_supersteps >= 1
