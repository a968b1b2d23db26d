"""Fig. 11: cost/performance Pareto space of EC2 machines.

Using only synthetic-graph profiling (no production runs), the paper
positions every EC2 machine type in (cost-per-task, speedup) space for
each application.  Expected shape: the three 2xlarge machines cluster
together (~2× speedup at a fraction of the 8xlarge cost), the 8xlarge is
the most expensive machine per graph task, and the xlarge/2xlarge/4xlarge
sizes form the sensible Pareto choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.apps.registry import DEFAULT_APPS
from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.core.cost import CostPoint, cost_efficiency, pareto_front
from repro.core.proxy import ProxySet, proxy_vertices_for_scale
from repro.experiments.common import (
    DEFAULT_SCALE,
    attach_provenance,
    make_perf,
)

__all__ = ["Fig11Result", "run_fig11"]

#: The priced machines of Table I, smallest first (baseline = c4.xlarge).
FIG11_MACHINES: Tuple[str, ...] = (
    "c4.xlarge",
    "c4.2xlarge",
    "m4.2xlarge",
    "r3.2xlarge",
    "c4.4xlarge",
    "c4.8xlarge",
)


@dataclass
class Fig11Result:
    points: List[CostPoint] = field(default_factory=list)

    def rows(self):
        return [
            (p.app, p.machine, p.speedup, p.cost_per_task, p.relative_cost)
            for p in self.points
        ]

    def mean_by_machine(self) -> Dict[str, Tuple[float, float]]:
        """(mean speedup, mean cost-per-task) per machine over apps."""
        acc: Dict[str, List[Tuple[float, float]]] = {}
        for p in self.points:
            acc.setdefault(p.machine, []).append((p.speedup, p.cost_per_task))
        return {
            m: (
                float(np.mean([s for s, _ in v])),
                float(np.mean([c for _, c in v])),
            )
            for m, v in acc.items()
        }

    def most_expensive_machine(self) -> str:
        """Machine with the highest mean cost per task (paper: c4.8xlarge)."""
        means = self.mean_by_machine()
        return max(means, key=lambda m: means[m][1])

    def pareto(self) -> List[CostPoint]:
        """Per-app union of non-dominated points."""
        out: List[CostPoint] = []
        for app in {p.app for p in self.points}:
            out.extend(pareto_front(p for p in self.points if p.app == app))
        return out


def run_fig11(
    scale: float = DEFAULT_SCALE,
    apps: Sequence[str] = DEFAULT_APPS,
    machines: Sequence[str] = FIG11_MACHINES,
    baseline: str = "c4.xlarge",
) -> Fig11Result:
    """Profile the priced machines with proxies and build the Pareto space."""
    specs = [get_machine(m) for m in machines]
    template = Cluster([specs[0]], perf=make_perf(scale))
    proxies = ProxySet(num_vertices=proxy_vertices_for_scale(scale), seed=100)
    points = cost_efficiency(
        specs, template, apps=apps, proxies=proxies, baseline=baseline
    )
    return attach_provenance(
        Fig11Result(points=points),
        "fig11",
        scale=scale,
        apps=list(apps),
        machines=list(machines),
        baseline=baseline,
    )
