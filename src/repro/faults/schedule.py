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
  = for the rest of the run).  This is the dynamic-CCR case the online
  monitor must learn about.
* :class:`NetworkFault` — degraded interconnect: bandwidth is divided and
  per-round latency multiplied cluster-wide for a window of supersteps.

Schedules are plain data — JSON round-trippable so the CLI can save,
inspect and replay scenarios.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import FaultError
from repro.utils.rng import make_rng

__all__ = ["CrashFault", "SlowdownFault", "NetworkFault", "FaultSchedule"]


def check_seed(seed: object, what: str) -> None:
    """Reject a schedule seed that is neither ``None`` nor a plain ``int``."""
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise FaultError(f"{what} seed must be an integer or null, got {seed!r}")


def check_integer(value: object, what: str) -> None:
    """Reject an index, count or step duration that is not an integer.

    ``numbers.Integral`` admits numpy integers; ``bool`` is refused
    although it subclasses ``int``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise FaultError(f"{what} must be an integer, got {value!r}")


def check_finite(value: object, what: str) -> None:
    """Reject a factor or time that is not a finite real number."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise FaultError(f"{what} must be a finite number, got {value!r}")


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

    def __post_init__(self):
        check_integer(self.superstep, "crash superstep")
        check_integer(self.machine, "crash machine slot")
        check_integer(self.repeats, "crash repeats")
        if self.superstep < 0:
            raise FaultError("crash superstep must be >= 0")
        if self.machine < 0:
            raise FaultError("crash machine slot must be >= 0")
        if self.repeats < 1:
            raise FaultError("crash repeats must be >= 1")


@dataclass(frozen=True)
class SlowdownFault:
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

    def __post_init__(self):
        check_integer(self.superstep, "slowdown superstep")
        check_integer(self.machine, "slowdown machine slot")
        check_finite(self.factor, "slowdown factor")
        if self.duration is not None:
            check_integer(self.duration, "slowdown duration")
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

    def active_at(self, superstep: int) -> bool:
        if superstep < self.superstep:
            return False
        return self.duration is None or superstep < self.superstep + self.duration


@dataclass(frozen=True)
class NetworkFault:
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

    def __post_init__(self):
        check_integer(self.superstep, "network fault superstep")
        check_finite(self.bandwidth_factor, "network bandwidth factor")
        check_finite(self.latency_factor, "network latency factor")
        if self.duration is not None:
            check_integer(self.duration, "network fault duration")
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

    def active_at(self, superstep: int) -> bool:
        if superstep < self.superstep:
            return False
        return self.duration is None or superstep < self.superstep + self.duration


@dataclass(frozen=True)
class FaultSchedule:
    """A complete failure scenario over one execution.

    The schedule is pure data: the resilient pricing path queries it per
    superstep and never mutates it, so one schedule can price many traces
    (and the same trace on many clusters) reproducibly.
    """

    crashes: Tuple[CrashFault, ...] = ()
    slowdowns: Tuple[SlowdownFault, ...] = ()
    network_faults: Tuple[NetworkFault, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self):
        check_seed(self.seed, "fault schedule")
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "slowdowns", tuple(self.slowdowns))
        object.__setattr__(self, "network_faults", tuple(self.network_faults))

    # ------------------------------------------------------------------ #
    # Queries (the pricing path's read API)
    # ------------------------------------------------------------------ #

    @property
    def is_empty(self) -> bool:
        """True when the schedule injects nothing at all."""
        return not (self.crashes or self.slowdowns or self.network_faults)

    @property
    def num_events(self) -> int:
        return len(self.crashes) + len(self.slowdowns) + len(self.network_faults)

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

    def validate_for(self, num_machines: int) -> None:
        """Reject schedules referencing slots the cluster does not have."""
        for event in (*self.crashes, *self.slowdowns):
            if event.machine >= num_machines:
                raise FaultError(
                    f"fault targets machine slot {event.machine} but the "
                    f"cluster has only {num_machines} machines"
                )

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
        network_bandwidth_factor: float = 2.0,
        network_latency_factor: float = 2.0,
        network_duration: int = 3,
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
            Per-superstep probability of a cluster-wide network fault.
        slowdown_factor:
            Mean of the sampled degradation factors (drawn uniformly in
            ``[1 + (factor-1)/2, 1 + 3*(factor-1)/2]``).
        """
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
                        bandwidth_factor=network_bandwidth_factor,
                        latency_factor=network_latency_factor,
                        duration=network_duration,
                    )
                )
        return cls(
            crashes=tuple(crashes),
            slowdowns=tuple(slowdowns),
            network_faults=tuple(network),
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    # JSON persistence (CLI save/replay)
    # ------------------------------------------------------------------ #

    def to_json(self) -> str:
        payload: Dict = {
            "seed": self.seed,
            "crashes": [asdict(c) for c in self.crashes],
            "slowdowns": [asdict(s) for s in self.slowdowns],
            "network_faults": [asdict(f) for f in self.network_faults],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"malformed fault schedule JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise FaultError("fault schedule JSON must be an object")
        known = {"seed", "crashes", "slowdowns", "network_faults"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise FaultError(f"unknown fault schedule fields {unknown}")
        try:
            return cls(
                crashes=tuple(
                    CrashFault(**c) for c in payload.get("crashes", ())
                ),
                slowdowns=tuple(
                    SlowdownFault(**s) for s in payload.get("slowdowns", ())
                ),
                network_faults=tuple(
                    NetworkFault(**f) for f in payload.get("network_faults", ())
                ),
                seed=payload.get("seed"),
            )
        except TypeError as exc:
            raise FaultError(f"malformed fault schedule JSON: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "FaultSchedule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    # ------------------------------------------------------------------ #

    def describe(self) -> Sequence[Tuple[str, int, str]]:
        """Human-readable event rows (kind, superstep, detail) for tables."""
        rows = []
        for c in self.crashes:
            detail = f"machine {c.machine}"
            if c.repeats > 1:
                detail += f", repeats x{c.repeats}"
            rows.append(("crash", c.superstep, detail))
        for s in self.slowdowns:
            dur = "rest of run" if s.duration is None else f"{s.duration} steps"
            rows.append(
                ("slowdown", s.superstep,
                 f"machine {s.machine}, {s.factor:.2f}x for {dur}")
            )
        for f in self.network_faults:
            dur = "rest of run" if f.duration is None else f"{f.duration} steps"
            rows.append(
                ("network", f.superstep,
                 f"bandwidth /{f.bandwidth_factor:.2f}, "
                 f"latency x{f.latency_factor:.2f} for {dur}")
            )
        return sorted(rows, key=lambda r: (r[1], r[0]))
