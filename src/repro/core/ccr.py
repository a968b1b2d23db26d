"""Computation Capability Ratio (CCR) — Section II-A, Eq. 1.

For application ``i`` and machine ``j``::

    CCR[i, j] = max_j(t[i, j]) / t[i, j]

i.e. the slowest machine in the cluster anchors at 1.0 and every other
machine's ratio says how much faster it processes graphs *for this
application*.  A :class:`CCRTable` holds one application's ratios keyed by
machine *type* (profiling groups machines by type, Section III-B); a
:class:`CCRPool` collects the tables for all profiled applications and is
the reusable artifact of the one-time offline profiling pass.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from repro.cluster.cluster import Cluster
from repro.errors import ProfilingError
from repro.utils.validation import require_finite

__all__ = ["CCRTable", "CCRPool", "ccr_from_times"]


def ccr_from_times(times: Mapping[str, float]) -> Dict[str, float]:
    """Apply Eq. 1 to per-machine-type execution times."""
    if not times:
        raise ProfilingError("cannot compute CCR from an empty time map")
    for name, t in sorted(times.items()):
        if t <= 0:
            raise ProfilingError(f"non-positive profiling time for {name!r}: {t}")
    slowest = max(times.values())
    return {name: slowest / t for name, t in sorted(times.items())}


@dataclass(frozen=True)
class CCRTable:
    """One application's capability ratios over machine types."""

    app: str
    ratios: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.ratios:
            raise ProfilingError(f"CCRTable for {self.app!r} has no entries")
        for name, r in sorted(self.ratios.items()):
            require_finite(r, f"CCR of {name!r}", ProfilingError)
            if r < 1.0 - 1e-9:
                raise ProfilingError(
                    f"CCR of {name!r} is {r} < 1; Eq. 1 anchors the slowest "
                    "machine at 1.0"
                )
        object.__setattr__(self, "ratios", dict(self.ratios))

    def ratio(self, machine_type: str) -> float:
        try:
            return self.ratios[machine_type]
        except KeyError:
            raise ProfilingError(
                f"machine type {machine_type!r} was not profiled for "
                f"{self.app!r}; profiled types: {sorted(self.ratios)}"
            ) from None

    def weights_for(self, cluster: Cluster) -> NDArray[np.float64]:
        """Per-slot partition weights proportional to the CCR (normalised).

        Every machine instance of a type gets that type's ratio —
        "varying the cluster composition among existing machines does not
        require CCR updates" (Section III-B).
        """
        w = np.array([self.ratio(m.name) for m in cluster.machines])
        return w / w.sum()

    def as_dict(self) -> Dict[str, float]:
        return dict(self.ratios)


class CCRPool:
    """Collected CCR tables per application (the pool of Fig. 7a/7b).

    The pool is the unit of reuse: profiled once per cluster composition
    change, consulted on every subsequent execution.  It serialises to
    JSON so a deployment can persist it between framework restarts.
    """

    def __init__(self, tables: Optional[Mapping[str, CCRTable]] = None):
        self._tables: Dict[str, CCRTable] = dict(tables) if tables else {}

    def add(self, table: CCRTable) -> None:
        self._tables[table.app] = table

    def get(self, app: str) -> CCRTable:
        try:
            return self._tables[app]
        except KeyError:
            raise ProfilingError(
                f"no CCR profiled for application {app!r}; profiled apps: "
                f"{sorted(self._tables)}"
            ) from None

    def __contains__(self, app: str) -> bool:
        return app in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    def apps(self) -> Tuple[str, ...]:
        return tuple(self._tables)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_json(self) -> str:
        return json.dumps(
            {app: table.as_dict() for app, table in sorted(self._tables.items())},
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, payload: str) -> "CCRPool":
        try:
            raw = json.loads(payload)
        except ValueError as exc:  # JSONDecodeError, or an over-long integer
            raise ProfilingError(f"malformed CCR pool JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ProfilingError("CCR pool JSON must be an object")
        pool = cls()
        for app, ratios in sorted(raw.items()):
            if not isinstance(ratios, dict):
                raise ProfilingError(
                    f"CCR entry for {app!r} must be a machine->ratio object, "
                    f"got {type(ratios).__name__}"
                )
            pool.add(CCRTable(app=app, ratios=ratios))
        return pool

    def save(self, path: Union[str, "os.PathLike[str]"]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: Union[str, "os.PathLike[str]"]) -> "CCRPool":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def __repr__(self) -> str:
        return f"CCRPool(apps={sorted(self._tables)})"
