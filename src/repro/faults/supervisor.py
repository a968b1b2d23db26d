"""Straggler supervision: detect persistent degradation from timings.

The barrier makes degradation *observable for free*: every superstep the
runtime learns how long each machine took, and under a balanced partition
those times should stay proportional to the shares the partitioner
assigned.  A machine whose observed time drifts above its share — and
stays there — is a persistent straggler: thermal throttling, a noisy
co-tenant, a failing DIMM.  Unlike a crash this never raises an error; it
just quietly stretches every barrier, which is exactly the failure mode
the paper's load-balancing thesis is most exposed to.

:class:`Supervisor` implements the detection half of the control loop:

* calibrate each slot's expected *share* of a superstep from the first
  ``warmup`` observations;
* per superstep, estimate each slot's slowdown as its observed time over
  its expected time, using the cluster median as the scale so that a
  minority of stragglers cannot poison the estimate;
* a slot whose estimate exceeds ``threshold`` for ``patience``
  consecutive supersteps is declared a straggler.

:func:`~repro.engine.resilient.simulate_resilient_execution` feeds it
each superstep's timings the first time that superstep completes.  The
actuation half lives in
:class:`~repro.engine.runtime.GraphProcessingSystem`, which builds a
fresh supervisor per faulted run and re-partitions onto
degradation-discounted weights when it fires, and in
:meth:`Supervisor.apply_to_monitor`, which feeds the observed factors back
into the :class:`~repro.core.online.OnlineCCRMonitor` so future runs see
the degraded capability as a changed CCR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import FaultError

__all__ = ["StragglerReport", "Supervisor"]


@dataclass(frozen=True)
class StragglerReport:
    """One detection verdict: who is slow, by how much, and since when."""

    superstep: int
    factors: Dict[int, float]

    @property
    def slots(self) -> Tuple[int, ...]:
        return tuple(sorted(self.factors))


class Supervisor:
    """Detects persistent stragglers from per-superstep machine timings.

    Parameters
    ----------
    threshold:
        Slowdown estimate above which a machine counts as straggling
        (1.5 = 50% slower than its calibrated share).
    patience:
        Consecutive straggling supersteps before the verdict fires —
        filters one-off noise (GC pauses, frontier skew) from persistent
        degradation.
    warmup:
        Observations used to calibrate the per-slot share baseline; the
        supervisor cannot fire during warmup.
    """

    def __init__(
        self, threshold: float = 1.5, patience: int = 3, warmup: int = 2
    ):
        if threshold <= 1.0:
            raise FaultError(f"threshold must be > 1, got {threshold}")
        if patience < 1:
            raise FaultError("patience must be >= 1")
        if warmup < 1:
            raise FaultError("warmup must be >= 1")
        self.threshold = threshold
        self.patience = patience
        self.warmup = warmup
        self._warmup_obs: List[np.ndarray] = []
        self._shares: Optional[np.ndarray] = None
        self._streak: Optional[np.ndarray] = None
        self._last_factors: Optional[np.ndarray] = None
        self._report: Optional[StragglerReport] = None

    # ------------------------------------------------------------------ #

    @property
    def calibrated(self) -> bool:
        return self._shares is not None

    @property
    def report(self) -> Optional[StragglerReport]:
        """The verdict, once fired (None before)."""
        return self._report

    @property
    def triggered(self) -> bool:
        return self._report is not None

    def observe(self, superstep: int, busy_seconds: np.ndarray) -> None:
        """Feed one superstep's observed per-slot compute times."""
        busy = np.asarray(busy_seconds, dtype=np.float64)
        if busy.ndim != 1 or busy.size < 1:
            raise FaultError("busy_seconds must be a 1-D per-slot array")
        if np.any(busy < 0):
            raise FaultError("busy_seconds must be >= 0")
        if self.triggered:
            return
        total = float(busy.sum())
        if total <= 0.0:
            return  # empty superstep: nothing to learn
        if not self.calibrated:
            self._warmup_obs.append(busy / total)
            if len(self._warmup_obs) >= self.warmup:
                shares = np.mean(self._warmup_obs, axis=0)
                # A slot with no calibrated work cannot be rated; give it
                # an epsilon share so the estimate stays finite and calm.
                self._shares = np.maximum(shares, 1e-12)
                self._streak = np.zeros(busy.size, dtype=np.int64)
                self._last_factors = np.ones(busy.size)
            return
        if busy.size != self._shares.size:
            raise FaultError(
                f"observation spans {busy.size} slots, supervisor was "
                f"calibrated on {self._shares.size}"
            )
        # Observed time over expected time, using the cluster median as
        # the per-superstep scale: robust as long as straggling slots are
        # a minority.
        per_share = busy / self._shares
        scale = float(np.median(per_share))
        if scale <= 0.0:
            return
        factors = per_share / scale
        self._last_factors = factors
        straggling = factors >= self.threshold
        self._streak = np.where(straggling, self._streak + 1, 0)
        fired = self._streak >= self.patience
        if np.any(fired):
            self._report = StragglerReport(
                superstep=superstep,
                factors={
                    int(i): float(factors[i]) for i in np.flatnonzero(fired)
                },
            )

    # ------------------------------------------------------------------ #
    # Actuation helpers
    # ------------------------------------------------------------------ #

    def degraded_weights(self, weights) -> np.ndarray:
        """Discount partition weights by the detected slowdown factors.

        A machine observed to be ``f`` times slower deserves ``1/f`` of
        its former share — capability and CCR weight are proportional.
        """
        if not self.triggered:
            raise FaultError("supervisor has not detected any straggler")
        w = np.asarray(weights, dtype=np.float64).copy()
        for slot, factor in sorted(self._report.factors.items()):
            if slot >= w.size:
                raise FaultError(
                    f"straggler slot {slot} outside weight vector of "
                    f"size {w.size}"
                )
            w[slot] /= factor
        return w / w.sum()

    def apply_to_monitor(self, monitor, cluster) -> Dict[str, float]:
        """Report detected slowdowns to an online CCR monitor.

        Maps straggler slots to their machine *types* and calls
        :meth:`~repro.core.online.OnlineCCRMonitor.report_degradation`
        for each, so the next ``pool_for`` reflects the reduced
        capability.  Returns the per-type factors applied.
        """
        if not self.triggered:
            raise FaultError("supervisor has not detected any straggler")
        applied: Dict[str, float] = {}
        for slot, factor in sorted(self._report.factors.items()):
            if slot >= cluster.num_machines:
                raise FaultError(
                    f"straggler slot {slot} outside cluster of "
                    f"{cluster.num_machines} machines"
                )
            mtype = cluster.machines[slot].name
            # Several slots of one type: keep the worst observation.
            applied[mtype] = max(applied.get(mtype, 1.0), factor)
        for mtype, factor in sorted(applied.items()):
            monitor.report_degradation(mtype, factor)
        return applied

    def reset(self) -> None:
        """Forget calibration and verdicts (after a re-balance the new
        partition has new shares, so the old baseline is meaningless)."""
        self._warmup_obs = []
        self._shares = None
        self._streak = None
        self._last_factors = None
        self._report = None
