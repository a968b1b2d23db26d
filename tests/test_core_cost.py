"""Unit tests for repro.core.cost (Section V-C)."""

import pytest

from repro.apps.registry import make_app
from repro.cluster.catalog import get_machine, xeon_small
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.core.cost import CostPoint, cost_efficiency, pareto_front
from repro.core.proxy import ProxySet
from repro.engine.report import simulate_execution
from repro.engine.runtime import GraphProcessingSystem
from repro.errors import ClusterError


@pytest.fixture(scope="module")
def points():
    template = Cluster(
        [get_machine("c4.xlarge")], perf=PerformanceModel(model_scale=0.001)
    )
    return cost_efficiency(
        [get_machine("c4.xlarge"), get_machine("c4.2xlarge"), get_machine("c4.8xlarge")],
        template,
        apps=("pagerank",),
        proxies=ProxySet(num_vertices=1200, seed=41),
        baseline="c4.xlarge",
    )


class TestCostEfficiency:
    def test_one_point_per_machine_app(self, points):
        assert len(points) == 3
        assert {p.machine for p in points} == {
            "c4.xlarge",
            "c4.2xlarge",
            "c4.8xlarge",
        }

    def test_baseline_speedup_one(self, points):
        base = next(p for p in points if p.machine == "c4.xlarge")
        assert base.speedup == pytest.approx(1.0)

    def test_bigger_machine_faster(self, points):
        by = {p.machine: p for p in points}
        assert by["c4.8xlarge"].speedup > by["c4.2xlarge"].speedup > 1.0

    def test_cost_per_task_definition(self, points):
        p = next(p for p in points if p.machine == "c4.2xlarge")
        assert p.cost_per_task == pytest.approx(
            p.runtime_seconds / 3600.0 * 0.419
        )

    def test_relative_cost_normalised(self, points):
        assert max(p.relative_cost for p in points) == pytest.approx(1.0)

    def test_unpriced_machine_rejected(self):
        template = Cluster([get_machine("c4.xlarge")])
        with pytest.raises(ClusterError, match="hourly rate"):
            cost_efficiency([xeon_small()], template)

    def test_unknown_baseline_rejected(self):
        template = Cluster([get_machine("c4.xlarge")])
        with pytest.raises(ClusterError, match="baseline"):
            cost_efficiency(
                [get_machine("c4.xlarge")],
                template,
                apps=("pagerank",),
                proxies=ProxySet(num_vertices=1200, seed=41),
                baseline="c4.9xlarge",
            )

    def test_empty_machines_rejected(self):
        template = Cluster([get_machine("c4.xlarge")])
        with pytest.raises(ClusterError):
            cost_efficiency([], template)

    def test_duplicate_machine_rejected(self):
        template = Cluster([get_machine("c4.xlarge")])
        with pytest.raises(ClusterError, match="listed twice"):
            cost_efficiency(
                [get_machine("c4.xlarge"), get_machine("c4.xlarge")], template
            )

    def test_runtimes_equal_solo_pricing_of_each_proxy(self, points):
        """The profiler's cached loop prices exactly what a hand-rolled
        per-proxy, per-machine solo pricing does."""
        template = Cluster(
            [get_machine("c4.xlarge")], perf=PerformanceModel(model_scale=0.001)
        )
        graphs = ProxySet(num_vertices=1200, seed=41).graphs()
        for p in points:
            total = 0.0
            for _name, graph in sorted(graphs.items()):
                trace = GraphProcessingSystem(template).run_single_machine(
                    make_app("pagerank"), graph
                )
                solo = Cluster([get_machine(p.machine)], perf=template.perf)
                total += simulate_execution(trace, solo).runtime_seconds
            assert p.runtime_seconds == total


class TestParetoFront:
    def test_dominated_point_removed(self):
        a = CostPoint("a", "x", 1.0, speedup=1.0, cost_per_task=1.0, relative_cost=1.0)
        b = CostPoint("b", "x", 1.0, speedup=2.0, cost_per_task=0.5, relative_cost=0.5)
        front = pareto_front([a, b])
        assert [p.machine for p in front] == ["b"]

    def test_incomparable_points_kept(self):
        a = CostPoint("a", "x", 1.0, speedup=1.0, cost_per_task=0.1, relative_cost=0.2)
        b = CostPoint("b", "x", 1.0, speedup=3.0, cost_per_task=0.9, relative_cost=1.0)
        front = pareto_front([a, b])
        assert {p.machine for p in front} == {"a", "b"}

    def test_sorted_by_speedup(self):
        a = CostPoint("a", "x", 1.0, speedup=3.0, cost_per_task=0.9, relative_cost=1.0)
        b = CostPoint("b", "x", 1.0, speedup=1.0, cost_per_task=0.1, relative_cost=0.2)
        front = pareto_front([a, b])
        assert [p.machine for p in front] == ["b", "a"]

    def test_empty(self):
        assert pareto_front([]) == []
