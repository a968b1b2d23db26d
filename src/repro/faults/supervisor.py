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
  ``WARMUP`` observations;
* per superstep, estimate each slot's slowdown as its observed time over
  its expected time, using the cluster median as the scale so that a
  minority of stragglers cannot poison the estimate;
* a slot whose estimate exceeds ``THRESHOLD`` for ``PATIENCE``
  consecutive supersteps is declared a straggler.

:func:`~repro.engine.resilient.simulate_resilient_execution` feeds it
each superstep's timings the first time that superstep completes.  The
actuation half lives in
:class:`~repro.engine.runtime.GraphProcessingSystem`, which builds a
fresh supervisor per faulted run and re-partitions onto
degradation-discounted weights when it fires.  The discount holds for
that run only.
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


#: Slowdown estimate above which a machine counts as straggling (1.5 =
#: 50% slower than its calibrated share).
THRESHOLD = 1.5
#: Consecutive straggling supersteps before the verdict fires: filters
#: one-off noise (GC pauses, frontier skew) from persistent degradation.
PATIENCE = 3
#: Observations that calibrate the per-slot share baseline; the
#: supervisor cannot fire during warmup.
WARMUP = 2


class Supervisor:
    """Detects persistent stragglers from per-superstep machine timings,
    with the module's ``THRESHOLD``, ``PATIENCE`` and ``WARMUP``."""

    def __init__(self) -> None:
        self._warmup_obs: List[np.ndarray] = []
        self._shares: Optional[np.ndarray] = None
        self._streak: Optional[np.ndarray] = None
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
            if len(self._warmup_obs) >= WARMUP:
                shares = np.mean(self._warmup_obs, axis=0)
                # A slot with no calibrated work cannot be rated; give it
                # an epsilon share so the estimate stays finite and calm.
                self._shares = np.maximum(shares, 1e-12)
                self._streak = np.zeros(busy.size, dtype=np.int64)
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
        straggling = factors >= THRESHOLD
        self._streak = np.where(straggling, self._streak + 1, 0)
        fired = self._streak >= PATIENCE
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
