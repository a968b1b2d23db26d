"""Shared fixtures: small deterministic graphs and clusters.

Tests run at tiny scales so the whole suite stays fast on one core;
experiment-level behaviour at evaluation scale is exercised by
``tests/paper/``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineSpec
from repro.cluster.perfmodel import PerformanceModel
from repro.graph.digraph import DiGraph
from repro.powerlaw.generator import generate_power_law_graph


@pytest.fixture(autouse=True)
def _kernel_isolation():
    """Per-test kernel-state hygiene: empty caches, no store."""
    from repro.kernels.cache import clear_all_caches, detach_store

    detach_store()
    clear_all_caches()
    yield
    detach_store()
    clear_all_caches()


@pytest.fixture
def tiny_graph() -> DiGraph:
    """Seven edges over five vertices, with a parallel edge and a hub."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 0), (0, 1)]
    return DiGraph.from_edges(edges, num_vertices=5)


@pytest.fixture
def ring_graph() -> DiGraph:
    """A directed 8-cycle: one component, no triangles, 2-colourable."""
    n = 8
    src = np.arange(n, dtype=np.int64)
    dst = (src + 1) % n
    return DiGraph(n, src, dst)


@pytest.fixture
def star_graph() -> DiGraph:
    """Hub 0 pointing at 9 leaves: extreme skew for partition tests."""
    n = 10
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    return DiGraph(n, src, dst)


@pytest.fixture
def two_components_graph() -> DiGraph:
    """Two disjoint triangles (vertices 0-2 and 3-5)."""
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    return DiGraph.from_edges(edges, num_vertices=6)


@pytest.fixture(scope="session")
def powerlaw_graph() -> DiGraph:
    """A 2 000-vertex power-law graph (session-cached: generation is pure)."""
    return generate_power_law_graph(num_vertices=2000, alpha=2.1, seed=42)


@pytest.fixture(scope="session")
def powerlaw_graph_large() -> DiGraph:
    """A denser 4 000-vertex power-law graph for engine/partition tests."""
    return generate_power_law_graph(num_vertices=4000, alpha=1.95, seed=7)


@pytest.fixture
def hetero_pair() -> Cluster:
    """A slow and a fast machine, 1:2 compute and memory."""
    slow = MachineSpec("slow", hw_threads=4, freq_ghz=2.0, mem_bw_gbs=8.0,
                       llc_mb=4.0)
    fast = MachineSpec("fast", hw_threads=6, freq_ghz=4.0, mem_bw_gbs=16.0,
                       llc_mb=8.0)
    return Cluster([slow, fast])


@pytest.fixture
def case1_like_cluster() -> Cluster:
    """Four EC2 machines (2x m4.2xlarge + 2x c4.2xlarge), unit scale."""
    return Cluster(
        [get_machine("m4.2xlarge")] * 2 + [get_machine("c4.2xlarge")] * 2,
        perf=PerformanceModel(model_scale=1.0),
    )
