"""Unit tests for repro.core.online (incremental CCR maintenance)."""

import pytest

from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.core.online import OnlineCCREstimator, OnlineCCRMonitor
from repro.core.profiler import ProxyProfiler
from repro.core.proxy import ProxySet
from repro.errors import ProfilingError


def perf():
    return PerformanceModel(model_scale=0.001)


def monitor(apps=("pagerank",)):
    return OnlineCCRMonitor(
        profiler=ProxyProfiler(proxies=ProxySet(num_vertices=1200, seed=61)),
        apps=apps,
    )


def cluster_of(*names):
    return Cluster([get_machine(n) for n in names], perf=perf())


class TestObserve:
    def test_first_observation_profiles(self):
        mon = monitor()
        update = mon.observe(cluster_of("c4.xlarge", "c4.2xlarge"))
        assert update.profiled
        assert set(update.new_types) == {"c4.xlarge", "c4.2xlarge"}

    def test_repeat_observation_free(self):
        """The paper: re-profiling only when machine types change."""
        mon = monitor()
        mon.observe(cluster_of("c4.xlarge", "c4.2xlarge"))
        update = mon.observe(cluster_of("c4.xlarge", "c4.2xlarge"))
        assert update.was_free

    def test_composition_change_among_known_types_free(self):
        mon = monitor()
        mon.observe(cluster_of("c4.xlarge", "c4.2xlarge"))
        update = mon.observe(
            cluster_of("c4.xlarge", "c4.xlarge", "c4.xlarge", "c4.2xlarge")
        )
        assert update.was_free

    def test_new_type_profiles_incrementally(self):
        mon = monitor()
        mon.observe(cluster_of("c4.xlarge"))
        update = mon.observe(cluster_of("c4.xlarge", "c4.8xlarge"))
        assert update.profiled
        assert update.new_types == ("c4.8xlarge",)

    def test_update_history_recorded(self):
        mon = monitor()
        mon.observe(cluster_of("c4.xlarge"))
        mon.observe(cluster_of("c4.xlarge"))
        assert len(mon.updates) == 2
        assert mon.updates[0].profiled and mon.updates[1].was_free


class TestPoolFor:
    def test_anchored_on_slowest_present(self):
        mon = monitor()
        mon.observe(cluster_of("c4.xlarge", "c4.2xlarge", "c4.8xlarge"))
        # Drop the slowest type from the cluster: the anchor moves.
        small = cluster_of("c4.2xlarge", "c4.8xlarge")
        table = mon.pool_for(small).get("pagerank")
        assert table.ratio("c4.2xlarge") == pytest.approx(1.0)
        assert table.ratio("c4.8xlarge") > 1.0

    def test_consistent_with_direct_profiling(self):
        """Incremental observations reproduce a one-shot profile."""
        mon = monitor()
        mon.observe(cluster_of("c4.xlarge"))
        mon.observe(cluster_of("c4.xlarge", "c4.2xlarge"))
        both = cluster_of("c4.xlarge", "c4.2xlarge")
        incremental = mon.pool_for(both).get("pagerank")
        direct = (
            ProxyProfiler(
                proxies=ProxySet(num_vertices=1200, seed=61), apps=("pagerank",)
            )
            .profile(both)
            .pool.get("pagerank")
        )
        assert incremental.ratio("c4.2xlarge") == pytest.approx(
            direct.ratio("c4.2xlarge"), rel=1e-9
        )

    def test_unobserved_type_rejected(self):
        mon = monitor()
        mon.observe(cluster_of("c4.xlarge"))
        with pytest.raises(ProfilingError, match="not been observed"):
            mon.pool_for(cluster_of("c4.8xlarge"))


class TestOnlineEstimator:
    def test_weights_track_cluster_changes(self):
        est = OnlineCCREstimator(monitor=monitor())
        w1 = est.weights(cluster_of("c4.xlarge", "c4.2xlarge"), "pagerank")
        assert w1[1] > w1[0]
        # A machine joins the fleet; the next request covers it.
        w2 = est.weights(
            cluster_of("c4.xlarge", "c4.2xlarge", "c4.8xlarge"), "pagerank"
        )
        assert w2.size == 3
        assert w2.argmax() == 2

    def test_only_first_request_profiles(self):
        est = OnlineCCREstimator(monitor=monitor())
        c = cluster_of("c4.xlarge", "c4.2xlarge")
        est.weights(c, "pagerank")
        est.weights(c, "pagerank")
        profiled = [u.profiled for u in est.monitor.updates]
        assert profiled == [True, False]


def test_monitor_requires_apps():
    with pytest.raises(ProfilingError):
        OnlineCCRMonitor(apps=())
