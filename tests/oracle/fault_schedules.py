"""Literal sampling loops: the reference for both schedules' ``generate``.

:func:`reference_fault_schedule` and :func:`reference_shard_fault_schedule`
keep the two hand-written loops that ``FaultSchedule.generate`` and
``ShardFaultSchedule.generate`` replaced when both schedules came to
share one base class and one Bernoulli-draw helper (DESIGN.md §8).  The
hypothesis differential in ``tests/test_faults_differential.py`` compares
them schedule by schedule, error text included.
"""

from __future__ import annotations

from repro.errors import FaultError
from repro.faults.schedule import (
    CrashFault,
    FaultSchedule,
    NetworkFault,
    SlowdownFault,
)
from repro.faults.shards import (
    ShardCrash,
    ShardFaultSchedule,
    ShardPartition,
    ShardSlowdown,
)
from repro.utils.rng import make_rng

__all__ = ["reference_fault_schedule", "reference_shard_fault_schedule"]


def reference_fault_schedule(
    num_machines,
    num_supersteps,
    seed=0,
    crash_rate=0.0,
    slowdown_rate=0.0,
    slowdown_factor=4.0,
    slowdown_duration=5,
    network_rate=0.0,
):
    """``FaultSchedule.generate`` as one literal loop."""
    if num_machines < 1:
        raise FaultError("num_machines must be >= 1")
    if num_supersteps < 0:
        raise FaultError("num_supersteps must be >= 0")
    for name, rate in (
        ("crash_rate", crash_rate),
        ("slowdown_rate", slowdown_rate),
        ("network_rate", network_rate),
    ):
        if not 0.0 <= rate <= 1.0:
            raise FaultError(f"{name} must be in [0, 1], got {rate}")

    rng = make_rng(seed)
    crashes = []
    slowdowns = []
    network = []
    spread = max(0.0, slowdown_factor - 1.0)
    for step in range(num_supersteps):
        for machine in range(num_machines):
            if crash_rate and rng.random() < crash_rate:
                crashes.append(CrashFault(superstep=step, machine=machine))
            if slowdown_rate and rng.random() < slowdown_rate:
                factor = 1.0 + rng.uniform(0.5, 1.5) * spread
                slowdowns.append(
                    SlowdownFault(
                        superstep=step,
                        machine=machine,
                        factor=factor,
                        duration=slowdown_duration,
                    )
                )
        if network_rate and rng.random() < network_rate:
            network.append(
                NetworkFault(
                    superstep=step,
                    bandwidth_factor=2.0,
                    latency_factor=2.0,
                    duration=3,
                )
            )
    return FaultSchedule(
        crashes=tuple(crashes),
        slowdowns=tuple(slowdowns),
        network_faults=tuple(network),
        seed=seed,
    )


def reference_shard_fault_schedule(
    num_shards,
    horizon_s,
    seed=0,
    crash_rate=0.0,
    downtime_s=1.0,
    partition_rate=0.0,
    partition_duration_s=0.5,
    slowdown_rate=0.0,
    slowdown_factor=3.0,
    slowdown_duration_s=0.5,
):
    """``ShardFaultSchedule.generate`` as one literal loop."""
    if num_shards < 1:
        raise FaultError("num_shards must be >= 1")
    if horizon_s <= 0.0:
        raise FaultError(f"horizon_s must be > 0, got {horizon_s}")
    for name, rate in (
        ("crash_rate", crash_rate),
        ("partition_rate", partition_rate),
        ("slowdown_rate", slowdown_rate),
    ):
        if not 0.0 <= rate <= 1.0:
            raise FaultError(f"{name} must be in [0, 1], got {rate}")
    for name, mean in (
        ("downtime_s", downtime_s),
        ("partition_duration_s", partition_duration_s),
        ("slowdown_duration_s", slowdown_duration_s),
    ):
        if mean <= 0.0:
            raise FaultError(f"{name} must be > 0, got {mean}")
    if slowdown_factor < 1.0:
        raise FaultError(f"slowdown_factor must be >= 1, got {slowdown_factor}")

    rng = make_rng(seed)
    crashes = []
    partitions = []
    slowdowns = []
    spread = max(0.0, slowdown_factor - 1.0)
    for shard in range(num_shards):
        if crash_rate and rng.random() < crash_rate:
            crashes.append(
                ShardCrash(
                    time_s=float(rng.uniform(0.0, horizon_s)),
                    shard=shard,
                    downtime_s=float(rng.uniform(0.5, 1.5) * downtime_s),
                )
            )
        if partition_rate and rng.random() < partition_rate:
            partitions.append(
                ShardPartition(
                    time_s=float(rng.uniform(0.0, horizon_s)),
                    shard=shard,
                    duration_s=float(
                        rng.uniform(0.5, 1.5) * partition_duration_s
                    ),
                )
            )
        if slowdown_rate and rng.random() < slowdown_rate:
            slowdowns.append(
                ShardSlowdown(
                    time_s=float(rng.uniform(0.0, horizon_s)),
                    shard=shard,
                    factor=1.0 + float(rng.uniform(0.5, 1.5)) * spread,
                    duration_s=float(
                        rng.uniform(0.5, 1.5) * slowdown_duration_s
                    ),
                )
            )
    return ShardFaultSchedule(
        crashes=tuple(crashes),
        partitions=tuple(partitions),
        slowdowns=tuple(slowdowns),
        seed=seed,
    )
