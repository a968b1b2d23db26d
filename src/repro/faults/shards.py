"""Shard-level fault models for the federated scheduler service.

:mod:`repro.faults.schedule` describes what goes wrong *inside* one run —
machines crashing or slowing mid-superstep.  This module lifts the same
idea one level up, to the schedulers themselves: a
:class:`ShardFaultSchedule` scripts scheduler-shard outages on the
*simulated service clock* (seconds, not supersteps), so a federation
replay can inject

* :class:`ShardCrash` — fail-stop: the shard process dies at ``time_s``
  and stays down for ``downtime_s``.  Its queue is failed over through
  the ring, its in-flight run is destroyed, and on recovery the shard
  replays its journal to pick up whatever could not be re-routed.
* :class:`ShardPartition` — reachability loss: the shard keeps draining
  the jobs it already holds, but the router cannot reach it, so no new
  arrivals (or failovers) land on it until the partition heals.
* :class:`ShardSlowdown` — a degraded scheduler: runs started while the
  slowdown is active occupy the shard ``factor`` times longer than the
  priced runtime (the runs themselves are unchanged — the *scheduler* is
  slow, not the cluster).

The schedule is a subclass of :class:`~repro.faults.schedule.EventSchedule`,
so it shares the machine schedule's JSON codec, seed and target checks
and ``describe`` sort; this module only declares the shard vocabulary,
the replay order and the seeded sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.errors import FaultError
from repro.faults.schedule import EventSchedule, Row, bernoulli, check_rates
from repro.utils.rng import make_rng
from repro.utils.validation import require_finite, require_integer

__all__ = [
    "ShardCrash",
    "ShardPartition",
    "ShardSlowdown",
    "ShardFaultSchedule",
]


def _check_shard_event(event: Any, kind: str, *finite: str) -> None:
    """Type-check an event's ``time_s``, ``shard`` and ``finite`` fields,
    then require a non-negative start and shard index."""
    require_finite(event.time_s, f"{kind} time_s", FaultError)
    require_integer(event.shard, f"{kind} shard index", FaultError)
    for name in finite:
        require_finite(getattr(event, name), f"{kind} {name}", FaultError)
    if event.time_s < 0.0:
        raise FaultError(f"{kind} time_s must be >= 0")
    if event.shard < 0:
        raise FaultError(f"{kind} shard index must be >= 0")


@dataclass(frozen=True)
class ShardCrash:
    """Fail-stop outage of one scheduler shard.

    Attributes
    ----------
    time_s:
        Instant on the simulated service clock at which the shard dies.
    shard:
        Shard index within the federation.
    downtime_s:
        Simulated seconds until the shard restarts and replays its
        journal.
    """

    time_s: float
    shard: int
    downtime_s: float

    def __post_init__(self) -> None:
        _check_shard_event(self, "shard crash", "downtime_s")
        if self.downtime_s <= 0.0:
            raise FaultError(
                f"shard crash downtime_s must be > 0, got {self.downtime_s}"
            )

    def describe_row(self) -> Row:
        return (
            "shard-crash",
            self.time_s,
            f"shard {self.shard} down for {self.downtime_s:.3f}s",
        )


@dataclass(frozen=True)
class ShardPartition:
    """Network partition: the shard is unreachable but keeps working.

    Attributes
    ----------
    time_s:
        Partition start on the simulated clock.
    shard:
        Shard index within the federation.
    duration_s:
        Simulated seconds until reachability returns.
    """

    time_s: float
    shard: int
    duration_s: float

    def __post_init__(self) -> None:
        _check_shard_event(self, "shard partition", "duration_s")
        if self.duration_s <= 0.0:
            raise FaultError(
                f"shard partition duration_s must be > 0, got "
                f"{self.duration_s}"
            )

    def describe_row(self) -> Row:
        return (
            "shard-partition",
            self.time_s,
            f"shard {self.shard} unreachable for {self.duration_s:.3f}s",
        )


@dataclass(frozen=True)
class ShardSlowdown:
    """Degraded scheduler: the shard drains its queue slower.

    Attributes
    ----------
    time_s:
        Slowdown start on the simulated clock.
    shard:
        Shard index within the federation.
    factor:
        Occupancy multiplier (>= 1) applied to runs *started* while the
        slowdown is active.
    duration_s:
        Simulated seconds the degradation lasts.
    """

    time_s: float
    shard: int
    factor: float
    duration_s: float

    def __post_init__(self) -> None:
        _check_shard_event(self, "shard slowdown", "factor", "duration_s")
        if self.factor < 1.0:
            raise FaultError(
                f"shard slowdown factor must be >= 1 (got {self.factor}); "
                "speedups are not faults"
            )
        if self.duration_s <= 0.0:
            raise FaultError(
                f"shard slowdown duration_s must be > 0, got "
                f"{self.duration_s}"
            )

    def active_at(self, time_s: float) -> bool:
        return self.time_s <= time_s < self.time_s + self.duration_s

    def describe_row(self) -> Row:
        return (
            "shard-slowdown",
            self.time_s,
            f"shard {self.shard} {self.factor:.2f}x slower for "
            f"{self.duration_s:.3f}s",
        )


@dataclass(frozen=True)
class ShardFaultSchedule(EventSchedule):
    """A complete shard-outage scenario over one federation replay.

    Pure data: the federation's event loop reads it and never mutates it,
    so one schedule can replay against many workloads (and the same
    workload on many federation shapes) reproducibly.
    """

    KINDS = (
        ("crashes", ShardCrash),
        ("partitions", ShardPartition),
        ("slowdowns", ShardSlowdown),
    )
    TARGET = "shard"
    OUT_OF_RANGE = (
        "shard fault targets shard {target} but the federation has only "
        "{count} shard(s)"
    )
    NAME = "shard fault schedule"
    SORT_KEYS = True

    crashes: Tuple[ShardCrash, ...] = ()
    partitions: Tuple[ShardPartition, ...] = ()
    slowdowns: Tuple[ShardSlowdown, ...] = ()
    seed: Optional[int] = None

    def sorted_events(self) -> Tuple[Any, ...]:
        """All events in deterministic replay order.

        Order is (time, kind rank, shard): at one instant crashes land
        before partitions before slowdowns, lower shard index first —
        a fixed total order so two replays walk the schedule
        identically.
        """
        rank = {ShardCrash: 0, ShardPartition: 1, ShardSlowdown: 2}
        return tuple(
            sorted(
                (*self.crashes, *self.partitions, *self.slowdowns),
                key=lambda e: (e.time_s, rank[type(e)], e.shard),
            )
        )

    @classmethod
    def generate(
        cls,
        num_shards: int,
        horizon_s: float,
        seed: int = 0,
        crash_rate: float = 0.0,
        downtime_s: float = 1.0,
        partition_rate: float = 0.0,
        partition_duration_s: float = 0.5,
        slowdown_rate: float = 0.0,
        slowdown_factor: float = 3.0,
        slowdown_duration_s: float = 0.5,
    ) -> "ShardFaultSchedule":
        """Sample a shard-outage scenario from per-shard fault rates.

        Deterministic: the same arguments always produce the identical
        schedule (draws go through :func:`repro.utils.rng.make_rng` in a
        fixed per-shard order: crash, partition, slowdown).

        Parameters
        ----------
        num_shards:
            Federation width the schedule targets.
        horizon_s:
            Fault times are drawn uniformly over ``[0, horizon_s)``.
        crash_rate, partition_rate, slowdown_rate:
            Per-shard Bernoulli probabilities of one event of each kind.
        downtime_s, partition_duration_s, slowdown_duration_s:
            Mean outage lengths; actual lengths are drawn uniformly in
            ``[0.5x, 1.5x]`` of the mean.
        slowdown_factor:
            Mean occupancy multiplier, drawn uniformly in
            ``[1 + (f-1)/2, 1 + 3(f-1)/2]``.
        """
        if num_shards < 1:
            raise FaultError("num_shards must be >= 1")
        if horizon_s <= 0.0:
            raise FaultError(f"horizon_s must be > 0, got {horizon_s}")
        check_rates(
            (
                ("crash_rate", crash_rate),
                ("partition_rate", partition_rate),
                ("slowdown_rate", slowdown_rate),
            )
        )
        for name, mean in (
            ("downtime_s", downtime_s),
            ("partition_duration_s", partition_duration_s),
            ("slowdown_duration_s", slowdown_duration_s),
        ):
            if mean <= 0.0:
                raise FaultError(f"{name} must be > 0, got {mean}")
        if slowdown_factor < 1.0:
            raise FaultError(
                f"slowdown_factor must be >= 1, got {slowdown_factor}"
            )

        rng = make_rng(seed)
        crashes: List[ShardCrash] = []
        partitions: List[ShardPartition] = []
        slowdowns: List[ShardSlowdown] = []
        spread = max(0.0, slowdown_factor - 1.0)
        for shard in range(num_shards):
            if bernoulli(rng, crash_rate):
                crashes.append(
                    ShardCrash(
                        time_s=float(rng.uniform(0.0, horizon_s)),
                        shard=shard,
                        downtime_s=float(
                            rng.uniform(0.5, 1.5) * downtime_s
                        ),
                    )
                )
            if bernoulli(rng, partition_rate):
                partitions.append(
                    ShardPartition(
                        time_s=float(rng.uniform(0.0, horizon_s)),
                        shard=shard,
                        duration_s=float(
                            rng.uniform(0.5, 1.5) * partition_duration_s
                        ),
                    )
                )
            if bernoulli(rng, slowdown_rate):
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
        return cls(
            crashes=tuple(crashes),
            partitions=tuple(partitions),
            slowdowns=tuple(slowdowns),
            seed=seed,
        )
