"""Fig. 10: local clusters — runtime *and* energy, Cases 2 and 3.

Both cases run three systems on a two-machine local cluster:

* **default** — uniform partitioning (heterogeneity-oblivious);
* **prior** — thread-count weights (LeBeane et al.);
* **ccr** — the paper's proxy-guided weights.

Case 2 (same frequency, 4 vs 12 computing threads; CCRs ≈ 1:3–3.5):
paper reports prior ≈ 1.27× and ours ≈ 1.45× average speedup over the
default, with energy savings ≈ 8 % (prior) vs ≈ 24 % (ours).

Case 3 (the small machine capped at 1.8 GHz emulating a tiny server;
CCRs grow to ≈ 1:5–8): ours ≈ 1.58× and ≈ 26 % energy over the default.

Energy comes from the simulated RAPL counters: the overloaded machine's
long busy time *and* the idle-wait power of everyone else at the barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.apps.registry import DEFAULT_APPS, make_app
from repro.cluster.cluster import Cluster
from repro.core.estimators import (
    ProxyCCREstimator,
    ThreadCountEstimator,
    UniformEstimator,
)
from repro.core.profiler import ProxyProfiler
from repro.core.proxy import ProxySet, proxy_vertices_for_scale
from repro.engine.runtime import GraphProcessingSystem
from repro.graph.datasets import load_dataset
from repro.partition import make_partitioner
from repro.experiments.common import (
    DEFAULT_SCALE,
    REAL_GRAPHS,
    TWO_MACHINE_PARTITIONERS,
    attach_provenance,
    case2_cluster,
    case3_cluster,
)

__all__ = ["Fig10AppResult", "Fig10Result", "run_fig10", "run_case2", "run_case3"]

_SYSTEMS = ("default", "prior", "ccr")


@dataclass(frozen=True)
class Fig10AppResult:
    """One application's bars in Fig. 10 (averaged over graphs × algos)."""

    app: str
    runtime: Dict[str, float]
    energy: Dict[str, float]

    def speedup(self, system: str) -> float:
        """Runtime improvement of a system over the default."""
        return self.runtime["default"] / self.runtime[system]

    def energy_savings_pct(self, system: str) -> float:
        """Energy reduction of a system relative to the default."""
        return (1.0 - self.energy[system] / self.energy["default"]) * 100.0


@dataclass
class Fig10Result:
    case: str
    apps: List[Fig10AppResult] = field(default_factory=list)

    def rows(self):
        out = []
        for a in self.apps:
            out.append(
                (
                    a.app,
                    a.speedup("prior"),
                    a.speedup("ccr"),
                    a.energy_savings_pct("prior"),
                    a.energy_savings_pct("ccr"),
                )
            )
        return out

    def mean_speedup(self, system: str) -> float:
        return float(np.mean([a.speedup(system) for a in self.apps]))

    def max_speedup(self, system: str) -> float:
        return float(np.max([a.speedup(system) for a in self.apps]))

    def mean_energy_savings_pct(self, system: str) -> float:
        return float(np.mean([a.energy_savings_pct(system) for a in self.apps]))


def _run_case(
    case: str,
    cluster: Cluster,
    scale: float,
    apps: Sequence[str],
    graphs: Sequence[str],
    algorithms: Sequence[str],
    seed: int,
) -> Fig10Result:
    system = GraphProcessingSystem(cluster)
    proxies = ProxySet(num_vertices=proxy_vertices_for_scale(scale), seed=100)
    estimators = {
        "default": UniformEstimator(),
        "prior": ThreadCountEstimator(),
        "ccr": ProxyCCREstimator(profiler=ProxyProfiler(proxies=proxies)),
    }

    loaded = {g: load_dataset(g, scale=scale) for g in graphs}
    result = Fig10Result(case=case)
    for app_name in apps:
        runtimes = {s: [] for s in _SYSTEMS}
        energies = {s: [] for s in _SYSTEMS}
        for graph in loaded.values():
            for alg in algorithms:
                partitioner = make_partitioner(alg, seed=seed)
                for sys_name in _SYSTEMS:
                    w = estimators[sys_name].weights(cluster, app_name)
                    report = system.run(
                        make_app(app_name), graph, partitioner, weights=w
                    ).report
                    runtimes[sys_name].append(report.runtime_seconds)
                    energies[sys_name].append(report.energy_joules)
        result.apps.append(
            Fig10AppResult(
                app=app_name,
                runtime={s: float(np.mean(v)) for s, v in runtimes.items()},
                energy={s: float(np.mean(v)) for s, v in energies.items()},
            )
        )
    return result


def run_case2(
    scale: float = DEFAULT_SCALE,
    apps: Sequence[str] = DEFAULT_APPS,
    graphs: Sequence[str] = REAL_GRAPHS,
    algorithms: Sequence[str] = TWO_MACHINE_PARTITIONERS,
    seed: int = 10,
) -> Fig10Result:
    """Fig. 10a: different thread counts, same frequency range."""
    result = _run_case(
        "case2", case2_cluster(scale), scale, apps, graphs, algorithms, seed
    )
    return attach_provenance(
        result,
        "fig10_case2",
        scale=scale,
        apps=list(apps),
        graphs=list(graphs),
        algorithms=list(algorithms),
        seed=seed,
    )


def run_case3(
    scale: float = DEFAULT_SCALE,
    apps: Sequence[str] = DEFAULT_APPS,
    graphs: Sequence[str] = REAL_GRAPHS,
    algorithms: Sequence[str] = TWO_MACHINE_PARTITIONERS,
    seed: int = 10,
) -> Fig10Result:
    """Fig. 10b: thread counts *and* frequency ranges differ."""
    result = _run_case(
        "case3", case3_cluster(scale), scale, apps, graphs, algorithms, seed
    )
    return attach_provenance(
        result,
        "fig10_case3",
        scale=scale,
        apps=list(apps),
        graphs=list(graphs),
        algorithms=list(algorithms),
        seed=seed,
    )


def run_fig10(scale: float = DEFAULT_SCALE, **kwargs):
    """Both subfigures."""
    return run_case2(scale=scale, **kwargs), run_case3(scale=scale, **kwargs)
