"""Unit tests for repro.core.estimators."""

import numpy as np
import pytest

from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.core.ccr import CCRPool, CCRTable
from repro.core.estimators import (
    OracleEstimator,
    ProxyCCREstimator,
    ThreadCountEstimator,
    UniformEstimator,
)
from repro.core.profiler import ProxyProfiler
from repro.core.proxy import ProxySet


@pytest.fixture(scope="module")
def cluster():
    return Cluster(
        [get_machine("c4.xlarge"), get_machine("c4.2xlarge")],
        perf=PerformanceModel(model_scale=0.001),
    )


def small_estimator():
    return ProxyCCREstimator(
        profiler=ProxyProfiler(proxies=ProxySet(num_vertices=1200, seed=77))
    )


class TestUniform:
    def test_equal_shares(self, cluster):
        w = UniformEstimator().weights(cluster, "pagerank")
        assert np.allclose(w, 0.5)


class TestThreadCount:
    def test_prior_work_ratio(self, cluster):
        """2 vs 6 computing threads -> 1:3 (the paper's example)."""
        w = ThreadCountEstimator().weights(cluster, "pagerank")
        assert w[1] / w[0] == pytest.approx(3.0)

    def test_app_independent(self, cluster):
        est = ThreadCountEstimator()
        a = est.weights(cluster, "pagerank")
        b = est.weights(cluster, "triangle_count")
        assert np.array_equal(a, b)


class TestProxyCCR:
    def test_lazy_profiling_populates_pool(self, cluster):
        est = small_estimator()
        assert "pagerank" not in est.pool
        est.weights(cluster, "pagerank")
        assert "pagerank" in est.pool

    def test_pool_reused_across_calls(self, cluster):
        est = small_estimator()
        est.weights(cluster, "pagerank")
        table = est.pool.get("pagerank")
        est.weights(cluster, "pagerank")
        assert est.pool.get("pagerank") is table

    def test_pool_invalidated_on_new_machine_type(self, cluster):
        """Re-profiling happens only when machine types change (Sec. III-B)."""
        est = small_estimator()
        est.weights(cluster, "pagerank")
        other = Cluster(
            [get_machine("c4.xlarge"), get_machine("m4.2xlarge")],
            perf=cluster.perf,
        )
        est.weights(other, "pagerank")
        with pytest.raises(Exception):
            est.pool.get("pagerank").ratio("c4.2xlarge")

    def test_pool_kept_when_composition_changes_within_types(self, cluster):
        est = small_estimator()
        est.weights(cluster, "pagerank")
        table = est.pool.get("pagerank")
        more = Cluster(
            [get_machine("c4.xlarge")] * 3 + [get_machine("c4.2xlarge")],
            perf=cluster.perf,
        )
        w = est.weights(more, "pagerank")
        assert est.pool.get("pagerank") is table
        assert w.size == 4

    def test_preloaded_pool_used_without_profiling(self, cluster):
        pool = CCRPool()
        pool.add(CCRTable("pagerank", {"c4.xlarge": 1.0, "c4.2xlarge": 4.0}))
        est = ProxyCCREstimator(pool=pool)
        w = est.weights(cluster, "pagerank")
        assert w[1] / w[0] == pytest.approx(4.0)

    def test_weights_favor_faster_machine(self, cluster):
        w = small_estimator().weights(cluster, "pagerank")
        assert w[1] > w[0]


class TestOracle:
    def test_requires_graph(self, cluster):
        with pytest.raises(ValueError):
            OracleEstimator().weights(cluster, "pagerank")

    def test_weights_from_real_graph(self, cluster, powerlaw_graph):
        w = OracleEstimator().weights(cluster, "pagerank", powerlaw_graph)
        assert w.sum() == pytest.approx(1.0)
        assert w[1] > w[0]
