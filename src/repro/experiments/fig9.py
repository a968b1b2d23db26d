"""Fig. 9: Case 1 — CCR-guided vs prior work on an EC2 cluster.

The cluster mixes 2× m4.2xlarge with 2× c4.2xlarge.  Both types expose six
computing threads, so prior work's thread counting sees a *homogeneous*
cluster and partitions uniformly — its runtimes equal the default
system's.  The proxy-profiled CCR captures the ~1.2× per-machine speed gap
and shifts load onto the c4 machines.

The experiment reproduces the figure's full sweep: four applications ×
four natural graphs × five partitioning algorithms, reporting prior and
CCR-guided runtimes and their ratio.  Paper headlines: PageRank ≈ 1.17×
average, Coloring lowest (≈ 1.12×), Connected Components max 1.45×
(hybrid, amazon), Triangle Count ≈ 1.19×; Hybrid/Ginger best overall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.apps.registry import DEFAULT_APPS, make_app
from repro.core.estimators import ProxyCCREstimator, ThreadCountEstimator
from repro.core.profiler import ProxyProfiler
from repro.core.proxy import ProxySet, proxy_vertices_for_scale
from repro.engine.runtime import GraphProcessingSystem
from repro.graph.datasets import load_dataset
from repro.partition import make_partitioner
from repro.experiments.common import (
    CASE1_PARTITIONERS,
    DEFAULT_SCALE,
    REAL_GRAPHS,
    attach_provenance,
    case1_cluster,
)

__all__ = ["Fig9Row", "Fig9Result", "run_fig9"]


@dataclass(frozen=True)
class Fig9Row:
    """One bar pair of Fig. 9."""

    app: str
    graph: str
    algorithm: str
    prior_runtime: float
    ccr_runtime: float

    @property
    def speedup(self) -> float:
        return self.prior_runtime / self.ccr_runtime


@dataclass
class Fig9Result:
    rows_list: List[Fig9Row] = field(default_factory=list)

    def rows(self):
        return [
            (r.app, r.graph, r.algorithm, r.prior_runtime, r.ccr_runtime, r.speedup)
            for r in self.rows_list
        ]

    def app_speedups(self) -> Dict[str, float]:
        """Average speedup per application (the per-subfigure headline)."""
        out: Dict[str, List[float]] = {}
        for r in self.rows_list:
            out.setdefault(r.app, []).append(r.speedup)
        return {app: float(np.mean(v)) for app, v in out.items()}

    def algorithm_speedups(self) -> Dict[str, float]:
        """Average speedup per partitioning algorithm."""
        out: Dict[str, List[float]] = {}
        for r in self.rows_list:
            out.setdefault(r.algorithm, []).append(r.speedup)
        return {alg: float(np.mean(v)) for alg, v in out.items()}

    @property
    def max_speedup(self) -> float:
        return max(r.speedup for r in self.rows_list)

    @property
    def mean_speedup(self) -> float:
        return float(np.mean([r.speedup for r in self.rows_list]))


def run_fig9(
    scale: float = DEFAULT_SCALE,
    apps: Sequence[str] = DEFAULT_APPS,
    graphs: Sequence[str] = REAL_GRAPHS,
    algorithms: Sequence[str] = CASE1_PARTITIONERS,
    seed: int = 9,
) -> Fig9Result:
    """Run the Case 1 sweep."""
    cluster = case1_cluster(scale)
    system = GraphProcessingSystem(cluster)
    proxies = ProxySet(num_vertices=proxy_vertices_for_scale(scale), seed=100)
    ccr_est = ProxyCCREstimator(profiler=ProxyProfiler(proxies=proxies))
    prior_est = ThreadCountEstimator()

    loaded = {g: load_dataset(g, scale=scale) for g in graphs}
    result = Fig9Result()
    for app_name in apps:
        for gname, graph in loaded.items():
            for alg in algorithms:
                partitioner = make_partitioner(alg, seed=seed)
                prior = system.run(
                    make_app(app_name),
                    graph,
                    partitioner,
                    weights=prior_est.weights(cluster, app_name),
                ).report.runtime_seconds
                ccr = system.run(
                    make_app(app_name),
                    graph,
                    partitioner,
                    weights=ccr_est.weights(cluster, app_name),
                ).report.runtime_seconds
                result.rows_list.append(
                    Fig9Row(
                        app=app_name,
                        graph=gname,
                        algorithm=alg,
                        prior_runtime=prior,
                        ccr_runtime=ccr,
                    )
                )
    return attach_provenance(
        result,
        "fig9",
        scale=scale,
        apps=list(apps),
        graphs=list(graphs),
        algorithms=list(algorithms),
        seed=seed,
    )
