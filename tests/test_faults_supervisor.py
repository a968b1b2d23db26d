"""Unit tests for repro.faults.supervisor (straggler detection)."""

import numpy as np
import pytest

from repro.errors import FaultError
from repro.faults.supervisor import PATIENCE, THRESHOLD, WARMUP, Supervisor


def feed(sup, observations):
    for step, busy in enumerate(observations):
        sup.observe(step, np.asarray(busy, dtype=float))


BALANCED = [1.0, 1.0, 1.0, 1.0]


def degraded(slot, factor):
    busy = list(BALANCED)
    busy[slot] *= factor
    return busy


class TestParameters:
    """The detection settings are module constants, not knobs."""

    def test_threshold_must_exceed_one(self):
        assert THRESHOLD > 1.0
        with pytest.raises(TypeError):
            Supervisor(threshold=1.0)

    def test_patience_positive(self):
        assert PATIENCE >= 1 and WARMUP >= 1
        with pytest.raises(TypeError):
            Supervisor(patience=0)

    def test_negative_busy_rejected(self):
        sup = Supervisor()
        with pytest.raises(FaultError):
            sup.observe(0, np.array([-1.0, 1.0]))


class TestDetection:
    def test_no_faults_no_verdict(self):
        sup = Supervisor()
        feed(sup, [BALANCED] * 20)
        assert not sup.triggered

    def test_persistent_straggler_detected(self):
        sup = Supervisor()
        feed(sup, [BALANCED] * 4 + [degraded(2, 4.0)] * 5)
        assert sup.triggered
        assert sup.report.slots == (2,)
        # Estimated factor close to the injected 4x.
        assert sup.report.factors[2] == pytest.approx(4.0, rel=0.15)

    def test_patience_filters_transients(self):
        sup = Supervisor()
        # Two-step blips separated by healthy steps never fire.
        blip = [degraded(1, 4.0)] * 2 + [BALANCED] * 2
        feed(sup, [BALANCED] * 2 + blip * 5)
        assert not sup.triggered

    def test_cannot_fire_during_warmup(self):
        """Warmup observations calibrate the baseline and count toward no
        streak: a slot slow from the start is its own normal."""
        sup = Supervisor()
        feed(sup, [degraded(0, 10.0)] * (WARMUP - 1))
        assert not sup.calibrated and not sup.triggered
        feed(sup, [degraded(0, 10.0)] * (WARMUP + PATIENCE + 2))
        assert sup.calibrated and not sup.triggered

    def test_frontier_scaling_is_not_degradation(self):
        """A superstep where everyone does 10x the work is not a fault."""
        sup = Supervisor()
        feed(sup, [BALANCED] * 3 + [[10.0] * 4] * 5)
        assert not sup.triggered

    def test_verdict_is_one_shot(self):
        sup = Supervisor()
        feed(sup, [BALANCED] * WARMUP + [degraded(3, 4.0)] * PATIENCE)
        assert sup.triggered
        first = sup.report
        sup.observe(99, np.asarray(degraded(1, 8.0)))
        assert sup.report is first

    def test_slot_count_mismatch_rejected(self):
        sup = Supervisor()
        feed(sup, [BALANCED] * WARMUP)
        with pytest.raises(FaultError, match="slots"):
            sup.observe(WARMUP, np.array([1.0, 1.0]))


class TestActuation:
    def make_triggered(self, slot=1, factor=4.0):
        sup = Supervisor()
        feed(sup, [BALANCED] * WARMUP + [degraded(slot, factor)] * PATIENCE)
        assert sup.triggered
        return sup

    def test_degraded_weights_discount_straggler(self):
        sup = self.make_triggered(slot=1, factor=4.0)
        w = sup.degraded_weights(np.full(4, 0.25))
        assert w.sum() == pytest.approx(1.0)
        assert w.argmin() == 1
        # Roughly a quarter of its former share.
        assert w[1] == pytest.approx(w[0] / 4.0, rel=0.2)

    def test_degraded_weights_requires_verdict(self):
        with pytest.raises(FaultError, match="not detected"):
            Supervisor().degraded_weights(np.full(4, 0.25))
