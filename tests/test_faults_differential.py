"""Both schedules' ``generate`` against their literal loops.

``FaultSchedule.generate`` and ``ShardFaultSchedule.generate`` draw
through the shared Bernoulli helper of ``repro.faults.schedule``;
``tests/oracle/fault_schedules.py`` keeps the two hand-written loops they
replaced.  For any arguments, rates outside ``[0, 1]`` included, both
must build the same schedule (equal events, the same ``to_json`` bytes
and ``describe`` rows) or raise ``FaultError`` with the same text.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import FaultError
from repro.faults.schedule import FaultSchedule
from repro.faults.shards import ShardFaultSchedule
from repro.utils.rng import make_rng
from tests.oracle.fault_schedules import (
    reference_fault_schedule,
    reference_shard_fault_schedule,
)


def _outcome(fn, kwargs):
    try:
        return fn(**kwargs)
    except FaultError as exc:
        return str(exc)


def assert_same(production, reference, kwargs):
    got = _outcome(production, kwargs)
    want = _outcome(reference, kwargs)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got == want
    assert got.to_json() == want.to_json()
    assert list(got.describe()) == list(want.describe())


#: Mostly valid rates, with zero, one and out-of-range values common.
rates = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-0.5, max_value=1.5),
)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=150, deadline=None)
@given(
    num_machines=st.integers(min_value=0, max_value=5),
    num_supersteps=st.integers(min_value=-1, max_value=25),
    seed=seeds,
    crash_rate=rates,
    slowdown_rate=rates,
    slowdown_factor=st.floats(min_value=0.5, max_value=8.0),
    slowdown_duration=st.integers(min_value=0, max_value=8),
    network_rate=rates,
)
def test_fault_schedule_generate_matches_reference(**kwargs):
    assert_same(FaultSchedule.generate, reference_fault_schedule, kwargs)


@settings(max_examples=150, deadline=None)
@given(
    num_shards=st.integers(min_value=0, max_value=6),
    horizon_s=st.floats(min_value=-1.0, max_value=10.0),
    seed=seeds,
    crash_rate=rates,
    downtime_s=st.floats(min_value=-0.5, max_value=3.0),
    partition_rate=rates,
    partition_duration_s=st.floats(min_value=-0.5, max_value=3.0),
    slowdown_rate=rates,
    slowdown_factor=st.floats(min_value=0.5, max_value=6.0),
    slowdown_duration_s=st.floats(min_value=-0.5, max_value=3.0),
)
def test_shard_fault_schedule_generate_matches_reference(**kwargs):
    assert_same(
        ShardFaultSchedule.generate, reference_shard_fault_schedule, kwargs
    )


def test_zero_rates_draw_nothing():
    """A kind at rate 0 makes no draw: with only crashes switched on,
    every draw of the seeded stream is a crash draw."""
    rng = make_rng(9)
    want = [
        (step, machine)
        for step in range(30)
        for machine in range(4)
        if rng.random() < 0.1
    ]
    got = FaultSchedule.generate(4, 30, seed=9, crash_rate=0.1)
    assert want and [(c.superstep, c.machine) for c in got.crashes] == want
