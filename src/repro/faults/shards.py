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

Like every fault model in the library the schedule is plain data: JSON
round-trippable, seeded-generatable via :func:`repro.utils.rng.make_rng`,
and validated against the federation shape before a replay starts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import FaultError
from repro.faults.schedule import check_finite, check_integer, check_seed
from repro.utils.rng import make_rng

__all__ = [
    "ShardCrash",
    "ShardPartition",
    "ShardSlowdown",
    "ShardFaultSchedule",
]


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
        check_finite(self.time_s, "shard crash time_s")
        check_integer(self.shard, "shard crash shard index")
        check_finite(self.downtime_s, "shard crash downtime_s")
        if self.time_s < 0.0:
            raise FaultError("shard crash time_s must be >= 0")
        if self.shard < 0:
            raise FaultError("shard crash shard index must be >= 0")
        if self.downtime_s <= 0.0:
            raise FaultError(
                f"shard crash downtime_s must be > 0, got {self.downtime_s}"
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
        check_finite(self.time_s, "shard partition time_s")
        check_integer(self.shard, "shard partition shard index")
        check_finite(self.duration_s, "shard partition duration_s")
        if self.time_s < 0.0:
            raise FaultError("shard partition time_s must be >= 0")
        if self.shard < 0:
            raise FaultError("shard partition shard index must be >= 0")
        if self.duration_s <= 0.0:
            raise FaultError(
                f"shard partition duration_s must be > 0, got "
                f"{self.duration_s}"
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
        check_finite(self.time_s, "shard slowdown time_s")
        check_integer(self.shard, "shard slowdown shard index")
        check_finite(self.factor, "shard slowdown factor")
        check_finite(self.duration_s, "shard slowdown duration_s")
        if self.time_s < 0.0:
            raise FaultError("shard slowdown time_s must be >= 0")
        if self.shard < 0:
            raise FaultError("shard slowdown shard index must be >= 0")
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


@dataclass(frozen=True)
class ShardFaultSchedule:
    """A complete shard-outage scenario over one federation replay.

    Pure data: the federation's event loop reads it and never mutates it,
    so one schedule can replay against many workloads (and the same
    workload on many federation shapes) reproducibly.
    """

    crashes: Tuple[ShardCrash, ...] = ()
    partitions: Tuple[ShardPartition, ...] = ()
    slowdowns: Tuple[ShardSlowdown, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        check_seed(self.seed, "shard fault schedule")
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "slowdowns", tuple(self.slowdowns))

    # ------------------------------------------------------------------ #
    # Queries (the federation loop's read API)
    # ------------------------------------------------------------------ #

    @property
    def is_empty(self) -> bool:
        return not (self.crashes or self.partitions or self.slowdowns)

    @property
    def num_events(self) -> int:
        return len(self.crashes) + len(self.partitions) + len(self.slowdowns)

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

    def validate_for(self, num_shards: int) -> None:
        """Reject schedules referencing shards the federation lacks."""
        for event in (*self.crashes, *self.partitions, *self.slowdowns):
            if event.shard >= num_shards:
                raise FaultError(
                    f"shard fault targets shard {event.shard} but the "
                    f"federation has only {num_shards} shard(s)"
                )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

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
            raise FaultError(
                f"slowdown_factor must be >= 1, got {slowdown_factor}"
            )

        rng = make_rng(seed)
        crashes: List[ShardCrash] = []
        partitions: List[ShardPartition] = []
        slowdowns: List[ShardSlowdown] = []
        spread = max(0.0, slowdown_factor - 1.0)
        for shard in range(num_shards):
            if crash_rate and rng.random() < crash_rate:
                crashes.append(
                    ShardCrash(
                        time_s=float(rng.uniform(0.0, horizon_s)),
                        shard=shard,
                        downtime_s=float(
                            rng.uniform(0.5, 1.5) * downtime_s
                        ),
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
        return cls(
            crashes=tuple(crashes),
            partitions=tuple(partitions),
            slowdowns=tuple(slowdowns),
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    # JSON persistence (CLI save/replay; workload embedding)
    # ------------------------------------------------------------------ #

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "crashes": [asdict(c) for c in self.crashes],
            "partitions": [asdict(p) for p in self.partitions],
            "slowdowns": [asdict(s) for s in self.slowdowns],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)

    @classmethod
    def from_jsonable(cls, payload: Any) -> "ShardFaultSchedule":
        if not isinstance(payload, dict):
            raise FaultError("shard fault schedule must be an object")
        known = {"seed", "crashes", "partitions", "slowdowns"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise FaultError(
                f"unknown shard fault schedule fields {unknown}"
            )
        try:
            return cls(
                crashes=tuple(
                    ShardCrash(**c) for c in payload.get("crashes", ())
                ),
                partitions=tuple(
                    ShardPartition(**p) for p in payload.get("partitions", ())
                ),
                slowdowns=tuple(
                    ShardSlowdown(**s) for s in payload.get("slowdowns", ())
                ),
                seed=payload.get("seed"),
            )
        except TypeError as exc:
            raise FaultError(
                f"malformed shard fault schedule: {exc}"
            ) from exc

    @classmethod
    def from_json(cls, text: str) -> "ShardFaultSchedule":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(
                f"malformed shard fault schedule JSON: {exc}"
            ) from exc
        return cls.from_jsonable(payload)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ShardFaultSchedule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    # ------------------------------------------------------------------ #

    def describe(self) -> Sequence[Tuple[str, float, str]]:
        """Human-readable event rows (kind, time_s, detail) for tables."""
        rows: List[Tuple[str, float, str]] = []
        for c in self.crashes:
            rows.append(
                ("shard-crash", c.time_s,
                 f"shard {c.shard} down for {c.downtime_s:.3f}s")
            )
        for p in self.partitions:
            rows.append(
                ("shard-partition", p.time_s,
                 f"shard {p.shard} unreachable for {p.duration_s:.3f}s")
            )
        for s in self.slowdowns:
            rows.append(
                ("shard-slowdown", s.time_s,
                 f"shard {s.shard} {s.factor:.2f}x slower for "
                 f"{s.duration_s:.3f}s")
            )
        return sorted(rows, key=lambda r: (r[1], r[0]))
