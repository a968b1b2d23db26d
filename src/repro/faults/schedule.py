"""Deterministic fault models: what goes wrong, where, and when.

The paper's premise — the slowest machine sets the barrier time — cuts
both ways: a machine that *becomes* slow mid-run (thermal throttling, a
noisy neighbour, a failing disk) drags every superstep after it, and a
machine that crashes erases work that must be replayed.  A
:class:`FaultSchedule` describes such a scenario as data: a set of typed
events pinned to supersteps and machine slots, generated either explicitly
(tests, demos) or by seeded sampling (:meth:`FaultSchedule.generate`,
built on :mod:`repro.utils.rng` so the same seed always yields the same
scenario).

Three fault types cover the failure taxonomy of synchronous graph
processing:

* :class:`CrashFault` — fail-stop: the machine dies during a superstep,
  the attempt's work is lost, and the runtime must restart it and replay
  from the last checkpoint.  ``repeats`` lets the same site fail again on
  replay, which is how the retry bound is exercised.
* :class:`SlowdownFault` — degraded capability: the machine's compute
  time is multiplied by ``factor`` for ``duration`` supersteps (``None``
  = for the rest of the run).  This is the dynamic-CCR case the
  straggler supervisor detects and a run re-balances around.
* :class:`NetworkFault` — degraded interconnect: bandwidth is divided and
  per-round latency multiplied cluster-wide for a window of supersteps.

Schedules are plain data — JSON round-trippable so the CLI can save,
inspect and replay scenarios.  :class:`EventSchedule` is what this
schedule shares with :class:`repro.faults.shards.ShardFaultSchedule`:
the seed check, the JSON codec, save/load, the target check and the
``describe`` sort.  Each subclass only declares its event kinds.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, ClassVar, Dict, Optional, Sequence, Tuple, Type, TypeVar

from repro.errors import FaultError
from repro.utils.rng import make_rng
from repro.utils.validation import require_finite, require_integer, require_seed

__all__ = [
    "CrashFault",
    "SlowdownFault",
    "NetworkFault",
    "EventSchedule",
    "FaultSchedule",
]

#: One describe() row: (kind, when, detail).
Row = Tuple[str, float, str]
_S = TypeVar("_S", bound="EventSchedule")


def bernoulli(rng: Any, rate: float) -> bool:
    """One seeded Bernoulli(``rate``) draw.

    A zero rate makes no draw at all, so a kind switched off leaves every
    other kind's draws, and so every seed's events, where they were.
    """
    return bool(rate) and rng.random() < rate


def check_rates(rates: Sequence[Tuple[str, float]]) -> None:
    """Reject a ``generate`` rate outside ``[0, 1]``, in argument order."""
    for name, rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise FaultError(f"{name} must be in [0, 1], got {rate}")


class EventSchedule:
    """What the machine and shard fault schedules share.

    A schedule is a frozen dataclass holding a ``seed`` and one tuple of
    events per *kind*.  A subclass declares its vocabulary; this class
    owns everything that does not depend on it: the seed check, tuple
    coercion, the counts, the target check, the JSON codec with its
    unknown-field check, save/load and the ``describe`` sort.  Each event
    class words its own ``describe_row``.
    """

    #: (JSON field and attribute name, event class) per kind, in JSON order.
    KINDS: ClassVar[Tuple[Tuple[str, type], ...]] = ()
    #: The event field naming what an event hits ("machine" or "shard");
    #: kinds without it (cluster-wide network faults) hit everything.
    TARGET: ClassVar[str] = ""
    #: ``validate_for``'s message, formatted with ``target`` and ``count``.
    OUT_OF_RANGE: ClassVar[str] = ""
    #: The schedule's name in loader errors.
    NAME: ClassVar[str] = ""
    #: Whether ``to_json`` sorts keys (shard files do, machine files not).
    SORT_KEYS: ClassVar[bool] = False

    seed: Optional[int]

    def __post_init__(self) -> None:
        require_seed(self.seed, f"{self.NAME} seed", FaultError)
        for name, _ in self.KINDS:
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def _events(self) -> Tuple[Any, ...]:
        return tuple(e for name, _ in self.KINDS for e in getattr(self, name))

    @property
    def is_empty(self) -> bool:
        """True when the schedule injects nothing at all."""
        return not any(getattr(self, name) for name, _ in self.KINDS)

    @property
    def num_events(self) -> int:
        return sum(len(getattr(self, name)) for name, _ in self.KINDS)

    def validate_for(self, count: int) -> None:
        """Reject events that target a slot or shard the system lacks."""
        for event in self._events():
            target = getattr(event, self.TARGET, None)
            if target is not None and target >= count:
                raise FaultError(
                    self.OUT_OF_RANGE.format(target=target, count=count)
                )

    # ------------------------------------------------------------------ #
    # JSON persistence (CLI save/replay; workload embedding)
    # ------------------------------------------------------------------ #

    def to_jsonable(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"seed": self.seed}
        for name, _ in self.KINDS:
            payload[name] = [asdict(e) for e in getattr(self, name)]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=self.SORT_KEYS)

    @classmethod
    def from_jsonable(cls: Type[_S], payload: Any) -> _S:
        if not isinstance(payload, dict):
            raise FaultError(f"{cls.NAME} must be an object")
        known = {"seed", *(name for name, _ in cls.KINDS)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise FaultError(f"unknown {cls.NAME} fields {unknown}")
        try:
            events = {
                name: tuple(kind(**e) for e in payload.get(name, ()))
                for name, kind in cls.KINDS
            }
            return cls(seed=payload.get("seed"), **events)  # type: ignore[call-arg]
        except TypeError as exc:
            raise FaultError(f"malformed {cls.NAME}: {exc}") from exc

    @classmethod
    def from_json(cls: Type[_S], text: str) -> _S:
        try:
            payload = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an over-long integer
            raise FaultError(f"malformed {cls.NAME} JSON: {exc}") from exc
        return cls.from_jsonable(payload)

    def save(self, path: Any) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls: Type[_S], path: Any) -> _S:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def describe(self) -> Sequence[Row]:
        """Human-readable event rows (kind, when, detail), time-ordered."""
        return sorted(
            (e.describe_row() for e in self._events()),
            key=lambda r: (r[1], r[0]),
        )


@dataclass(frozen=True)
class CrashFault:
    """Fail-stop failure of one machine during one superstep.

    Attributes
    ----------
    superstep:
        Superstep index during which the crash occurs (the attempt's work
        is lost).
    machine:
        Cluster slot of the crashing machine.
    repeats:
        How many times the site fails before the machine comes back
        healthy; each replay that reaches the superstep consumes one.
        ``repeats`` beyond the retry policy's budget fail the run.
    """

    superstep: int
    machine: int
    repeats: int = 1

    def __post_init__(self) -> None:
        require_integer(self.superstep, "crash superstep", FaultError)
        require_integer(self.machine, "crash machine slot", FaultError)
        require_integer(self.repeats, "crash repeats", FaultError)
        if self.superstep < 0:
            raise FaultError("crash superstep must be >= 0")
        if self.machine < 0:
            raise FaultError("crash machine slot must be >= 0")
        if self.repeats < 1:
            raise FaultError("crash repeats must be >= 1")

    def describe_row(self) -> Row:
        detail = f"machine {self.machine}"
        if self.repeats > 1:
            detail += f", repeats x{self.repeats}"
        return ("crash", self.superstep, detail)


def _steps(duration: Optional[int]) -> str:
    return "rest of run" if duration is None else f"{duration} steps"


class _StepWindow:
    """``active_at`` for events spanning ``duration`` supersteps from
    ``superstep`` (``None`` = the rest of the run)."""

    superstep: int
    duration: Optional[int]

    def active_at(self, superstep: int) -> bool:
        if superstep < self.superstep:
            return False
        return self.duration is None or superstep < self.superstep + self.duration


@dataclass(frozen=True)
class SlowdownFault(_StepWindow):
    """Transient (or permanent) compute-capability degradation.

    Attributes
    ----------
    superstep:
        First affected superstep.
    machine:
        Cluster slot of the degraded machine.
    factor:
        Compute-time multiplier (>= 1; 4.0 means the machine takes 4x
        longer per unit of work).
    duration:
        Number of affected supersteps; ``None`` = until the end of the
        run (persistent degradation, the supervisor's target case).
    """

    superstep: int
    machine: int
    factor: float
    duration: Optional[int] = None

    def __post_init__(self) -> None:
        require_integer(self.superstep, "slowdown superstep", FaultError)
        require_integer(self.machine, "slowdown machine slot", FaultError)
        require_finite(self.factor, "slowdown factor", FaultError)
        if self.duration is not None:
            require_integer(self.duration, "slowdown duration", FaultError)
        if self.superstep < 0:
            raise FaultError("slowdown superstep must be >= 0")
        if self.machine < 0:
            raise FaultError("slowdown machine slot must be >= 0")
        if self.factor < 1.0:
            raise FaultError(
                f"slowdown factor must be >= 1 (got {self.factor}); "
                "speedups are not faults"
            )
        if self.duration is not None and self.duration < 1:
            raise FaultError("slowdown duration must be >= 1 or None")

    def describe_row(self) -> Row:
        return (
            "slowdown",
            self.superstep,
            f"machine {self.machine}, {self.factor:.2f}x for "
            f"{_steps(self.duration)}",
        )


@dataclass(frozen=True)
class NetworkFault(_StepWindow):
    """Cluster-wide interconnect degradation for a window of supersteps.

    Attributes
    ----------
    superstep:
        First affected superstep.
    bandwidth_factor:
        Divides the effective link bandwidth (>= 1; 2.0 halves it).
    latency_factor:
        Multiplies the per-round latency (>= 1).
    duration:
        Number of affected supersteps; ``None`` = rest of the run.
    """

    superstep: int
    bandwidth_factor: float = 1.0
    latency_factor: float = 1.0
    duration: Optional[int] = None

    def __post_init__(self) -> None:
        require_integer(self.superstep, "network fault superstep", FaultError)
        require_finite(self.bandwidth_factor, "network bandwidth factor", FaultError)
        require_finite(self.latency_factor, "network latency factor", FaultError)
        if self.duration is not None:
            require_integer(self.duration, "network fault duration", FaultError)
        if self.superstep < 0:
            raise FaultError("network fault superstep must be >= 0")
        if self.bandwidth_factor < 1.0 or self.latency_factor < 1.0:
            raise FaultError(
                "network degradation factors must be >= 1 "
                f"(got bandwidth {self.bandwidth_factor}, "
                f"latency {self.latency_factor})"
            )
        if self.duration is not None and self.duration < 1:
            raise FaultError("network fault duration must be >= 1 or None")

    def describe_row(self) -> Row:
        return (
            "network",
            self.superstep,
            f"bandwidth /{self.bandwidth_factor:.2f}, "
            f"latency x{self.latency_factor:.2f} for {_steps(self.duration)}",
        )


@dataclass(frozen=True)
class FaultSchedule(EventSchedule):
    """A complete failure scenario over one execution.

    The schedule is pure data: the resilient pricing path queries it per
    superstep and never mutates it, so one schedule can price many traces
    (and the same trace on many clusters) reproducibly.
    """

    KINDS = (
        ("crashes", CrashFault),
        ("slowdowns", SlowdownFault),
        ("network_faults", NetworkFault),
    )
    TARGET = "machine"
    OUT_OF_RANGE = (
        "fault targets machine slot {target} but the cluster has only "
        "{count} machines"
    )
    NAME = "fault schedule"

    crashes: Tuple[CrashFault, ...] = ()
    slowdowns: Tuple[SlowdownFault, ...] = ()
    network_faults: Tuple[NetworkFault, ...] = ()
    seed: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Queries (the pricing path's read API)
    # ------------------------------------------------------------------ #

    def crashes_at(self, superstep: int) -> Tuple[CrashFault, ...]:
        """Crash events scheduled for one superstep."""
        return tuple(c for c in self.crashes if c.superstep == superstep)

    def compute_factor(self, superstep: int, machine: int) -> float:
        """Compute-time multiplier for one machine at one superstep.

        Overlapping slowdowns compound multiplicatively (a throttled CPU
        inside a VM on an oversubscribed host is slower than either
        alone).
        """
        factor = 1.0
        for s in self.slowdowns:
            if s.machine == machine and s.active_at(superstep):
                factor *= s.factor
        return factor

    def network_factors(self, superstep: int) -> Tuple[float, float]:
        """(bandwidth divisor, latency multiplier) at one superstep."""
        bw = lat = 1.0
        for f in self.network_faults:
            if f.active_at(superstep):
                bw *= f.bandwidth_factor
                lat *= f.latency_factor
        return bw, lat

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def generate(
        cls,
        num_machines: int,
        num_supersteps: int,
        seed: int = 0,
        crash_rate: float = 0.0,
        slowdown_rate: float = 0.0,
        slowdown_factor: float = 4.0,
        slowdown_duration: int = 5,
        network_rate: float = 0.0,
    ) -> "FaultSchedule":
        """Sample a scenario from per-(machine, superstep) fault rates.

        Deterministic: the same arguments always produce the identical
        schedule (the draws go through :func:`repro.utils.rng.make_rng`
        in a fixed order).

        Parameters
        ----------
        crash_rate, slowdown_rate:
            Per-machine, per-superstep Bernoulli probabilities.
        network_rate:
            Per-superstep probability of a cluster-wide network fault,
            which halves bandwidth and doubles latency for 3 supersteps.
        slowdown_factor:
            Mean of the sampled degradation factors (drawn uniformly in
            ``[1 + (factor-1)/2, 1 + 3*(factor-1)/2]``).
        """
        if num_machines < 1:
            raise FaultError("num_machines must be >= 1")
        if num_supersteps < 0:
            raise FaultError("num_supersteps must be >= 0")
        check_rates(
            (
                ("crash_rate", crash_rate),
                ("slowdown_rate", slowdown_rate),
                ("network_rate", network_rate),
            )
        )

        rng = make_rng(seed)
        crashes = []
        slowdowns = []
        network = []
        spread = max(0.0, slowdown_factor - 1.0)
        for step in range(num_supersteps):
            for machine in range(num_machines):
                if bernoulli(rng, crash_rate):
                    crashes.append(CrashFault(superstep=step, machine=machine))
                if bernoulli(rng, slowdown_rate):
                    factor = 1.0 + rng.uniform(0.5, 1.5) * spread
                    slowdowns.append(
                        SlowdownFault(
                            superstep=step,
                            machine=machine,
                            factor=factor,
                            duration=slowdown_duration,
                        )
                    )
            if bernoulli(rng, network_rate):
                network.append(
                    NetworkFault(
                        superstep=step,
                        bandwidth_factor=2.0,
                        latency_factor=2.0,
                        duration=3,
                    )
                )
        return cls(
            crashes=tuple(crashes),
            slowdowns=tuple(slowdowns),
            network_faults=tuple(network),
            seed=seed,
        )
