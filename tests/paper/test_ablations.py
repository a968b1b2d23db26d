"""Ablations of the design choices DESIGN.md calls out.

Not figures of the paper — these quantify the knobs behind its claims:

* proxy-set size: 1 vs 3 proxies (the paper deploys 3 to cover the alpha
  range of natural graphs);
* proxy graph size: CCR stability as the proxy shrinks (profiling cost is
  linear in proxy size, so smaller is cheaper if accuracy holds — the
  paper argues graph size is "a trivial factor" for CCR);
* Hybrid/Ginger high-degree threshold: replication-factor sensitivity;
* proxy CCR vs the oracle (profiling the real input): how much headroom
  the proxy approximation leaves.
"""

import numpy as np

from repro.core.estimators import OracleEstimator, ProxyCCREstimator
from repro.core.profiler import ProxyProfiler
from repro.core.proxy import ProxySet
from repro.experiments.common import case1_cluster, make_perf
from repro.experiments.fig8 import C4_FAMILY, machine_speedups
from repro.graph.datasets import load_dataset
from repro.partition import HybridPartitioner, replication_factor
from repro.utils.tables import format_table

from tests.paper import PAPER_SCALE, emit


def _real_curve(app, scale, graphs=("citation", "social_network")):
    perf = make_perf(scale)
    return np.mean(
        [
            machine_speedups(app, load_dataset(g, scale=scale), C4_FAMILY, perf)
            for g in graphs
        ],
        axis=0,
    )


def _proxy_curve(app, scale, alphas, vertices):
    perf = make_perf(scale)
    proxies = ProxySet(num_vertices=vertices, alphas=alphas, seed=100)
    return np.mean(
        [
            machine_speedups(app, g, C4_FAMILY, perf)
            for g in proxies.graphs().values()
        ],
        axis=0,
    )


def _err(estimate, truth):
    return float(np.mean(np.abs(estimate[1:] - truth[1:]) / truth[1:]) * 100)


def test_ablation_proxy_count():
    """One proxy vs the paper's three: coverage buys accuracy."""
    real = _real_curve("triangle_count", PAPER_SCALE)
    one = _proxy_curve("triangle_count", PAPER_SCALE, (2.1,), 32_000)
    three = _proxy_curve("triangle_count", PAPER_SCALE, (1.95, 2.1, 2.25), 32_000)
    err_one, err_three = _err(one, real), _err(three, real)
    emit(
        format_table(
            headers=("proxy set", "CCR error vs real (%)"),
            rows=[("1 proxy (alpha=2.1)", err_one), ("3 proxies (paper)", err_three)],
            title="Ablation: proxy-set alpha coverage (triangle_count)",
        )
    )
    assert err_three < 12.0


def test_ablation_proxy_size():
    """CCR stability as the proxy graph shrinks (profiling cost knob)."""
    real = _real_curve("pagerank", PAPER_SCALE)
    rows = [
        (vertices, _err(_proxy_curve("pagerank", PAPER_SCALE, (1.95, 2.1, 2.25), vertices), real))
        for vertices in (4_000, 8_000, 16_000, 32_000)
    ]
    emit(
        format_table(
            headers=("proxy |V|", "CCR error vs real (%)"),
            rows=rows,
            title="Ablation: proxy graph size (pagerank)",
        )
    )
    # The deployed size is accurate; the table shows how the smaller ones fare.
    assert rows[-1][1] < 12.0


def test_ablation_hybrid_threshold():
    """High-degree threshold vs replication factor (Hybrid)."""
    graph = load_dataset("social_network", scale=PAPER_SCALE)
    rows = [
        (threshold, replication_factor(
            HybridPartitioner(seed=1, threshold=threshold).partition(graph, 4)
        ))
        for threshold in (10, 30, 100, 300, 1000)
    ]
    emit(
        format_table(
            headers=("threshold", "replication factor"),
            rows=rows,
            title="Ablation: Hybrid high-degree threshold (social_network, 4 machines)",
        )
    )
    reps = [r for _, r in rows]
    # Replication varies with the threshold and stays bounded.
    assert max(reps) < 4.0
    assert min(reps) > 1.0


def test_ablation_proxy_vs_oracle():
    """How close proxy weights get to profiling the actual input graph."""
    cluster = case1_cluster(PAPER_SCALE)
    graph = load_dataset("citation", scale=PAPER_SCALE)
    proxies = ProxySet(num_vertices=32_000, seed=100)
    proxy_w = ProxyCCREstimator(profiler=ProxyProfiler(proxies=proxies)).weights(
        cluster, "pagerank"
    )
    oracle_w = OracleEstimator().weights(cluster, "pagerank", graph)
    emit(
        format_table(
            headers=("slot", "proxy weight", "oracle weight"),
            rows=[(i, float(p), float(o)) for i, (p, o) in enumerate(zip(proxy_w, oracle_w))],
            title="Ablation: proxy CCR weights vs oracle (case 1, pagerank)",
            float_fmt=".4f",
        )
    )
    assert np.abs(proxy_w - oracle_w).max() < 0.03
