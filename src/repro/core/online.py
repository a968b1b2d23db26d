"""Online CCR maintenance for changing clusters (Section III-B).

The paper: *"The CCR pool needs to be updated whenever computing resources
in the heterogeneous cluster change.  However, re-profiling is only
required if new machine types are deployed or machine characteristics
otherwise change.  Varying the cluster composition among existing machines
does not require CCR updates.  Given its low overhead, dynamic changes in
resources can be captured by running the profiler and updating the CCR
pool online at regular intervals."*

:class:`OnlineCCRMonitor` implements exactly that contract:

* it keeps raw per-(application, machine-type) profiling *times* — not
  ratios — so CCR tables can be re-anchored for any current composition
  without re-running anything;
* :meth:`observe` diffs the cluster's machine types against the store and
  profiles **only the new types** (incremental, the low-overhead path);
* composition changes among known types are free;
* :meth:`pool_for` derives Eq. 1 tables restricted to the types actually
  present, anchored on the slowest present type.

A known type whose characteristics change mid-run is handled inside the
run, not here: the straggler supervisor (:mod:`repro.faults.supervisor`)
re-balances onto degradation-discounted weights for that run only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.apps.registry import DEFAULT_APPS
from repro.cluster.cluster import Cluster
from repro.core.ccr import CCRPool, CCRTable, ccr_from_times
from repro.core.estimators import CapabilityEstimator
from repro.core.profiler import ProxyProfiler
from repro.errors import ProfilingError
from repro.graph.digraph import DiGraph

__all__ = ["ClusterUpdate", "OnlineCCRMonitor", "OnlineCCREstimator"]


@dataclass(frozen=True)
class ClusterUpdate:
    """What one :meth:`OnlineCCRMonitor.observe` call did."""

    new_types: Tuple[str, ...]
    known_types: Tuple[str, ...]
    profiled: bool

    @property
    def was_free(self) -> bool:
        """True when the observation required no profiling at all."""
        return not self.profiled


class OnlineCCRMonitor:
    """Incrementally maintains profiling state across cluster changes.

    Parameters
    ----------
    profiler:
        The proxy profiler to use; its proxy set is shared across updates
        so all stored times stay comparable.
    apps:
        Applications kept up to date.
    """

    def __init__(
        self,
        profiler: Optional[ProxyProfiler] = None,
        apps: Iterable[str] = DEFAULT_APPS,
    ):
        self.apps = tuple(apps)
        if not self.apps:
            raise ProfilingError("at least one application must be monitored")
        self.profiler = (
            profiler if profiler is not None else ProxyProfiler(apps=self.apps)
        )
        # app -> machine type -> total proxy runtime.
        self._times: Dict[str, Dict[str, float]] = {a: {} for a in self.apps}
        self._updates: List[ClusterUpdate] = []

    # ------------------------------------------------------------------ #

    @property
    def known_types(self) -> Tuple[str, ...]:
        types: Set[str] = set()
        for _app, per_app in sorted(self._times.items()):
            types.update(per_app)
        return tuple(sorted(types))

    @property
    def updates(self) -> Tuple[ClusterUpdate, ...]:
        """History of observations (for operations dashboards/tests)."""
        return tuple(self._updates)

    def observe(self, cluster: Cluster) -> ClusterUpdate:
        """Bring the store up to date with a (possibly changed) cluster.

        Profiles only machine types not seen before; returns what
        happened.  Call this at regular intervals, as the paper suggests.
        """
        present = set(cluster.representatives())
        new = sorted(present - set(self.known_types))
        if new:
            reps = {
                name: spec
                for name, spec in sorted(cluster.representatives().items())
                if name in new
            }
            sub = Cluster(
                list(reps.values()), network=cluster.network, perf=cluster.perf
            )
            report = ProxyProfiler(
                proxies=self.profiler.proxies, apps=self.apps
            ).profile(sub)
            for record in report.records:
                per_app = self._times[record.app]
                per_app[record.machine_type] = (
                    per_app.get(record.machine_type, 0.0)
                    + record.runtime_seconds
                )
        update = ClusterUpdate(
            new_types=tuple(new),
            known_types=self.known_types,
            profiled=bool(new),
        )
        self._updates.append(update)
        return update

    # ------------------------------------------------------------------ #

    def pool_for(self, cluster: Cluster) -> CCRPool:
        """CCR pool restricted to the cluster's present machine types.

        Ratios are re-anchored on the slowest *present* type — the Eq. 1
        anchor is a property of the cluster, not of the store.
        """
        present = set(cluster.representatives())
        missing = present - set(self.known_types)
        if missing:
            raise ProfilingError(
                f"machine types {sorted(missing)} have not been observed; "
                "call observe(cluster) first"
            )
        pool = CCRPool()
        for app in self.apps:
            times = {
                mtype: t
                for mtype, t in sorted(self._times[app].items())
                if mtype in present
            }
            pool.add(CCRTable(app=app, ratios=ccr_from_times(times)))
        return pool


class OnlineCCREstimator(CapabilityEstimator):
    """Capability estimator backed by an :class:`OnlineCCRMonitor`.

    Drop-in replacement for
    :class:`~repro.core.estimators.ProxyCCREstimator` in long-running
    deployments: every weight request observes the cluster first, so
    fleet changes are picked up automatically at the next execution.
    """

    name = "online_ccr"

    def __init__(self, monitor: Optional[OnlineCCRMonitor] = None):
        self.monitor = monitor if monitor is not None else OnlineCCRMonitor()

    def weights(
        self, cluster: Cluster, app_name: str, graph: Optional[DiGraph] = None
    ) -> NDArray[np.float64]:
        self.monitor.observe(cluster)
        return self.monitor.pool_for(cluster).get(app_name).weights_for(cluster)
