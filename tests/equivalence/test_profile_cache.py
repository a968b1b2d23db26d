"""Profile-cache semantics and the duplicate-profiling fixes.

Without the content-keyed profile caches the fig2, fig8a and fig8b
drivers would each re-execute the same (app, graph) profiling sets —
identical graph *content* loaded independently per driver — and the job
service would re-run a trace the profiler already had.  These tests pin
the exact execution counts.
"""

from __future__ import annotations

import pytest

from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.core.profiler import ProxyProfiler
from repro.engine.runtime import GraphProcessingSystem
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig8 import run_fig8a, run_fig8b
from repro.kernels.cache import cache_stats, clear_all_caches
from repro.powerlaw.generator import generate_power_law_graph
from repro.service.estimate import projected_seconds

#: One profiling execution per unique graph: 4 real datasets + 3 proxies.
UNIQUE_GRAPHS = 7
SCALE = 0.002


@pytest.fixture
def count_profile_runs(monkeypatch):
    calls = {"n": 0}
    original = GraphProcessingSystem.run_single_machine

    def counting(self, app, graph):
        calls["n"] += 1
        return original(self, app, graph)

    monkeypatch.setattr(GraphProcessingSystem, "run_single_machine", counting)
    return calls


def test_fig_drivers_deduplicate_profiling(count_profile_runs):
    """fig8a profiles each unique graph once; fig8b and fig2 add nothing."""
    clear_all_caches()
    run_fig8a(scale=SCALE, apps=("pagerank",), seed=100)
    assert count_profile_runs["n"] == UNIQUE_GRAPHS

    # Same graph content, freshly loaded, different machine ladder:
    # every trace comes from the content-keyed cache.
    run_fig8b(scale=SCALE, apps=("pagerank",), seed=100)
    assert count_profile_runs["n"] == UNIQUE_GRAPHS

    # fig2 re-runs the whole fig8a ladder: fully deduplicated too.
    run_fig2(scale=SCALE, apps=("pagerank",), seed=100)
    assert count_profile_runs["n"] == UNIQUE_GRAPHS

    stats = cache_stats()
    assert stats["profile_trace"]["hits"] > 0
    assert stats["machine_time"]["hits"] > 0


def test_service_projection_reuses_the_profiled_trace(count_profile_runs):
    """The service's projection and the profiler share one trace entry."""
    clear_all_caches()
    graph = generate_power_law_graph(num_vertices=300, alpha=2.0, seed=3)
    cluster = Cluster([get_machine("m4.2xlarge"), get_machine("c4.2xlarge")])
    ProxyProfiler().profile_graph("pagerank", graph, cluster)
    assert count_profile_runs["n"] == 1
    projected_seconds(cluster, "pagerank", graph)
    assert count_profile_runs["n"] == 1
