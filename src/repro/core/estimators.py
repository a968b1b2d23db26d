"""Capability estimators: the policies the evaluation compares.

Each estimator answers the same question — *what share of the graph should
each machine receive for this application?* — from different information:

* :class:`UniformEstimator` — the default homogeneous system: no
  heterogeneity information at all (Fig. 1).
* :class:`ThreadCountEstimator` — prior work (LeBeane et al. [5]): read
  the hardware configuration, weight by computing threads.
* :class:`ProxyCCREstimator` — the paper: weight by CCRs measured on
  synthetic power-law proxies (profiled lazily, cached in a pool).
* :class:`OracleEstimator` — upper bound for ablations: weight by CCRs
  measured on the *actual* input graph (information a production system
  cannot afford to collect).
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from repro.cluster.cluster import Cluster
from repro.core.ccr import CCRPool
from repro.core.profiler import ProxyProfiler
from repro.graph.digraph import DiGraph
from repro.partition.weights import thread_count_weights, uniform_weights

__all__ = [
    "CapabilityEstimator",
    "UniformEstimator",
    "ThreadCountEstimator",
    "ProxyCCREstimator",
    "OracleEstimator",
]


class CapabilityEstimator(abc.ABC):
    """Produces per-slot partition weights for an (app, graph, cluster)."""

    #: Policy name used in experiment reports.
    name: str = "abstract"

    @abc.abstractmethod
    def weights(
        self, cluster: Cluster, app_name: str, graph: Optional[DiGraph] = None
    ) -> NDArray[np.float64]:
        """Normalised weight per machine slot."""


class UniformEstimator(CapabilityEstimator):
    """Every machine equal — the heterogeneity-oblivious default."""

    name = "default"

    def weights(
        self, cluster: Cluster, app_name: str, graph: Optional[DiGraph] = None
    ) -> NDArray[np.float64]:
        return uniform_weights(cluster)


class ThreadCountEstimator(CapabilityEstimator):
    """Prior work: weights from hardware computing-thread counts."""

    name = "prior_work"

    def weights(
        self, cluster: Cluster, app_name: str, graph: Optional[DiGraph] = None
    ) -> NDArray[np.float64]:
        return thread_count_weights(cluster)


class ProxyCCREstimator(CapabilityEstimator):
    """The paper's estimator: proxy-profiled, application-specific CCRs.

    Parameters
    ----------
    profiler:
        Profiler to use when the pool lacks an application (default
        paper-like proxies).
    pool:
        Pre-populated CCR pool (e.g. loaded from disk); profiled lazily
        otherwise.
    """

    name = "proxy_ccr"

    def __init__(
        self,
        profiler: Optional[ProxyProfiler] = None,
        pool: Optional[CCRPool] = None,
    ):
        self.profiler = profiler if profiler is not None else ProxyProfiler()
        self.pool = pool if pool is not None else CCRPool()

    def ensure_profiled(self, cluster: Cluster, app_name: str) -> None:
        """Profile on demand (one-time per cluster composition).

        A table is valid for exactly the machine types it was profiled
        on, so a supplied or cached table is kept while those equal the
        cluster's types and re-profiled otherwise.
        """
        types = sorted(cluster.representatives())
        if app_name in self.pool and sorted(self.pool.get(app_name).ratios) == types:
            return
        report = ProxyProfiler(
            proxies=self.profiler.proxies, apps=(app_name,)
        ).profile(cluster)
        self.pool.add(report.pool.get(app_name))

    def weights(
        self, cluster: Cluster, app_name: str, graph: Optional[DiGraph] = None
    ) -> NDArray[np.float64]:
        self.ensure_profiled(cluster, app_name)
        return self.pool.get(app_name).weights_for(cluster)


class OracleEstimator(CapabilityEstimator):
    """Ablation upper bound: CCRs measured on the real input graph."""

    name = "oracle"

    def __init__(self, profiler: Optional[ProxyProfiler] = None):
        self.profiler = profiler if profiler is not None else ProxyProfiler()

    def weights(
        self, cluster: Cluster, app_name: str, graph: Optional[DiGraph] = None
    ) -> NDArray[np.float64]:
        if graph is None:
            raise ValueError("OracleEstimator needs the input graph")
        table = self.profiler.profile_graph(app_name, graph, cluster)
        return table.weights_for(cluster)
