"""Unit tests for repro.faults.schedule (fault models and scenarios)."""

import json

import numpy as np
import pytest

from repro.errors import FaultError
from repro.faults.schedule import (
    CrashFault,
    FaultSchedule,
    NetworkFault,
    SlowdownFault,
)


class TestEventValidation:
    def test_crash_rejects_negative_superstep(self):
        with pytest.raises(FaultError):
            CrashFault(superstep=-1, machine=0)

    def test_crash_rejects_zero_repeats(self):
        with pytest.raises(FaultError):
            CrashFault(superstep=0, machine=0, repeats=0)

    def test_slowdown_rejects_speedup(self):
        with pytest.raises(FaultError, match="speedups"):
            SlowdownFault(superstep=0, machine=0, factor=0.5)

    def test_slowdown_rejects_zero_duration(self):
        with pytest.raises(FaultError):
            SlowdownFault(superstep=0, machine=0, factor=2.0, duration=0)

    def test_network_rejects_factor_below_one(self):
        with pytest.raises(FaultError):
            NetworkFault(superstep=0, bandwidth_factor=0.5)


class TestEventFieldTypes:
    """Indices, counts and step durations must be integers (numpy ints
    included, bools refused); factors must be finite reals."""

    GOOD = {
        CrashFault: dict(superstep=1, machine=0, repeats=1),
        SlowdownFault: dict(superstep=1, machine=0, factor=2.0, duration=2),
        NetworkFault: dict(superstep=1, bandwidth_factor=2.0,
                           latency_factor=2.0, duration=2),
    }

    @pytest.mark.parametrize(
        "kind, field, bad",
        [
            (CrashFault, "superstep", 1.5),
            (CrashFault, "superstep", True),
            (CrashFault, "machine", 0.5),
            (CrashFault, "repeats", 1.5),
            (SlowdownFault, "superstep", 1.5),
            (SlowdownFault, "machine", 0.5),
            (SlowdownFault, "factor", float("nan")),
            (SlowdownFault, "factor", float("inf")),
            (SlowdownFault, "factor", "2"),
            (SlowdownFault, "duration", 2.5),
            (NetworkFault, "superstep", 1.5),
            (NetworkFault, "bandwidth_factor", float("nan")),
            (NetworkFault, "latency_factor", float("inf")),
            (NetworkFault, "duration", True),
        ],
    )
    def test_bad_field_rejected(self, kind, field, bad):
        with pytest.raises(FaultError, match=field.split("_")[0]):
            kind(**{**self.GOOD[kind], field: bad})

    def test_numpy_integers_accepted(self):
        crash = CrashFault(superstep=np.int64(2), machine=np.int32(1))
        assert FaultSchedule(crashes=(crash,)).crashes_at(2) == (crash,)

    def test_fractional_superstep_json_rejected(self):
        with pytest.raises(FaultError, match="superstep"):
            FaultSchedule.from_json(
                '{"crashes": [{"superstep": 1.5, "machine": 0}]}'
            )


class TestQueries:
    def test_empty_schedule(self):
        sched = FaultSchedule()
        assert sched.is_empty
        assert sched.num_events == 0
        assert sched.crashes_at(0) == ()
        assert sched.compute_factor(3, 1) == 1.0
        assert sched.network_factors(3) == (1.0, 1.0)

    def test_crashes_at_filters_by_superstep(self):
        sched = FaultSchedule(
            crashes=(CrashFault(2, 0), CrashFault(2, 1), CrashFault(5, 0))
        )
        assert len(sched.crashes_at(2)) == 2
        assert sched.crashes_at(3) == ()

    def test_slowdown_window(self):
        sched = FaultSchedule(
            slowdowns=(SlowdownFault(3, machine=1, factor=2.0, duration=2),)
        )
        assert sched.compute_factor(2, 1) == 1.0
        assert sched.compute_factor(3, 1) == 2.0
        assert sched.compute_factor(4, 1) == 2.0
        assert sched.compute_factor(5, 1) == 1.0
        # Other machines unaffected.
        assert sched.compute_factor(3, 0) == 1.0

    def test_permanent_slowdown(self):
        sched = FaultSchedule(
            slowdowns=(SlowdownFault(3, machine=0, factor=4.0, duration=None),)
        )
        assert sched.compute_factor(500, 0) == 4.0

    def test_overlapping_slowdowns_compound(self):
        sched = FaultSchedule(
            slowdowns=(
                SlowdownFault(0, machine=0, factor=2.0, duration=None),
                SlowdownFault(0, machine=0, factor=3.0, duration=None),
            )
        )
        assert sched.compute_factor(1, 0) == pytest.approx(6.0)

    def test_network_factors_compound(self):
        sched = FaultSchedule(
            network_faults=(
                NetworkFault(0, bandwidth_factor=2.0, latency_factor=1.5,
                             duration=None),
                NetworkFault(2, bandwidth_factor=2.0, duration=1),
            )
        )
        assert sched.network_factors(1) == (2.0, 1.5)
        assert sched.network_factors(2) == (4.0, 1.5)

    def test_validate_for_rejects_out_of_range_slot(self):
        sched = FaultSchedule(crashes=(CrashFault(0, machine=7),))
        with pytest.raises(FaultError, match="slot 7"):
            sched.validate_for(4)
        sched.validate_for(8)  # fits


class TestGenerate:
    def test_same_seed_identical_schedule(self):
        kwargs = dict(
            num_machines=4, num_supersteps=40, crash_rate=0.03,
            slowdown_rate=0.05, network_rate=0.02,
        )
        a = FaultSchedule.generate(seed=9, **kwargs)
        b = FaultSchedule.generate(seed=9, **kwargs)
        assert a == b

    def test_different_seed_differs(self):
        kwargs = dict(
            num_machines=4, num_supersteps=60, crash_rate=0.05,
            slowdown_rate=0.05,
        )
        a = FaultSchedule.generate(seed=1, **kwargs)
        b = FaultSchedule.generate(seed=2, **kwargs)
        assert a != b

    def test_zero_rates_empty(self):
        sched = FaultSchedule.generate(4, 100, seed=0)
        assert sched.is_empty

    def test_rates_out_of_range_rejected(self):
        with pytest.raises(FaultError, match="crash_rate"):
            FaultSchedule.generate(2, 10, crash_rate=1.5)

    def test_events_land_within_bounds(self):
        sched = FaultSchedule.generate(
            3, 25, seed=5, crash_rate=0.1, slowdown_rate=0.1,
            network_rate=0.1,
        )
        assert not sched.is_empty
        for c in sched.crashes:
            assert 0 <= c.superstep < 25 and 0 <= c.machine < 3
        for s in sched.slowdowns:
            assert 0 <= s.superstep < 25 and 0 <= s.machine < 3
            assert s.factor >= 1.0
        for f in sched.network_faults:
            assert 0 <= f.superstep < 25


class TestPersistence:
    def test_json_roundtrip(self):
        sched = FaultSchedule.generate(
            4, 30, seed=11, crash_rate=0.05, slowdown_rate=0.05,
            network_rate=0.05,
        )
        assert FaultSchedule.from_json(sched.to_json()) == sched

    def test_save_load(self, tmp_path):
        sched = FaultSchedule(
            crashes=(CrashFault(1, 0, repeats=2),),
            slowdowns=(SlowdownFault(2, 1, factor=3.0, duration=4),),
            seed=77,
        )
        path = tmp_path / "sched.json"
        sched.save(path)
        assert FaultSchedule.load(path) == sched

    def test_malformed_json_rejected(self):
        with pytest.raises(FaultError, match="malformed"):
            FaultSchedule.from_json('{"crashes": [{"superstep"')

    def test_wrong_shape_json_rejected(self):
        with pytest.raises(FaultError):
            FaultSchedule.from_json('{"crashes": [{"bogus_field": 1}]}')

    def test_unknown_top_level_field_rejected(self):
        """A misspelt field must not load as an empty schedule."""
        with pytest.raises(FaultError, match=r"unknown .*\['crashs'\]"):
            FaultSchedule.from_json(
                '{"crashs": [{"superstep": 1, "machine": 0}]}'
            )

    def test_non_object_json_rejected(self):
        with pytest.raises(FaultError, match="object"):
            FaultSchedule.from_json("[1, 2, 3]")

    @pytest.mark.parametrize("seed", ['"a"', "1.5", "true", "[1]"])
    def test_non_integer_seed_rejected(self, seed):
        text = '{"seed": %s, "crashes": [{"superstep": 1, "machine": 0}]}'
        with pytest.raises(FaultError, match="seed"):
            FaultSchedule.from_json(text % seed)
        with pytest.raises(FaultError, match="seed"):
            FaultSchedule(seed=json.loads(seed))
        assert FaultSchedule.from_json(text % "null").seed is None


class TestDescribe:
    def test_rows_sorted_by_superstep(self):
        sched = FaultSchedule(
            crashes=(CrashFault(5, 0),),
            slowdowns=(SlowdownFault(1, 1, factor=2.0),),
            network_faults=(NetworkFault(3, bandwidth_factor=2.0),),
        )
        rows = sched.describe()
        assert [r[1] for r in rows] == [1, 3, 5]
        assert [r[0] for r in rows] == ["slowdown", "network", "crash"]


# ---------------------------------------------------------------------- #
# Property-based tests (hypothesis)
# ---------------------------------------------------------------------- #

from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def generated_schedules(draw):
    """A sampled scenario plus the machine count it was drawn for."""
    num_machines = draw(st.integers(min_value=1, max_value=6))
    sched = FaultSchedule.generate(
        num_machines=num_machines,
        num_supersteps=draw(st.integers(min_value=0, max_value=40)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        crash_rate=draw(st.floats(min_value=0.0, max_value=0.3)),
        slowdown_rate=draw(st.floats(min_value=0.0, max_value=0.3)),
        slowdown_factor=draw(st.floats(min_value=1.5, max_value=8.0)),
        slowdown_duration=draw(st.integers(min_value=1, max_value=8)),
        network_rate=draw(st.floats(min_value=0.0, max_value=0.3)),
        network_duration=draw(st.integers(min_value=1, max_value=6)),
    )
    return num_machines, sched


class TestGeneratedScheduleProperties:
    @settings(max_examples=60, deadline=None)
    @given(generated_schedules())
    def test_json_round_trip_is_identity(self, case):
        _, sched = case
        assert FaultSchedule.from_json(sched.to_json()) == sched

    @settings(max_examples=60, deadline=None)
    @given(generated_schedules())
    def test_generated_schedule_is_valid_for_its_cluster(self, case):
        num_machines, sched = case
        sched.validate_for(num_machines)  # must not raise
        for event in (*sched.crashes, *sched.slowdowns):
            assert 0 <= event.machine < num_machines

    @settings(max_examples=30, deadline=None)
    @given(generated_schedules())
    def test_round_trip_preserves_json_text(self, case):
        _, sched = case
        text = sched.to_json()
        assert FaultSchedule.from_json(text).to_json() == text
