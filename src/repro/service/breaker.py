"""Per-machine circuit breakers over crash/straggler history.

The classic three-state breaker (closed → open → half-open), run on the
*simulated* clock.  Each machine slot in the service's cluster carries a
breaker fed by the priced runs' fault events: crashes and
straggler-triggered rebalances count as failures, a clean run through the
machine counts as a success.

Breakers never remove a machine — :func:`repro.partition.normalize_weights`
rejects non-positive weights, and a zeroed slot would change the
partition arity mid-stream.  Instead each state maps to a *weight
multiplier* applied to the scheduler's capability weights: an open
breaker shrinks the machine's share to a sliver (``open_weight``), a
half-open breaker routes a reduced probe share (``half_open_weight``),
and a closed breaker leaves the weight alone.  A machine that keeps
crashing therefore keeps almost none of the graph, which is exactly the
degradation-aware down-weighting the re-balancer applies within a run,
lifted to the job stream.

Determinism: transitions depend only on the fed event sequence and the
simulated clock, so a replayed workload reproduces the same transition
log byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.errors import ServiceError

__all__ = [
    "STATE_CLOSED",
    "STATE_OPEN",
    "STATE_HALF_OPEN",
    "BreakerPolicy",
    "BreakerEvent",
    "CircuitBreaker",
    "BreakerBoard",
]

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Knobs of the per-machine breaker state machine.

    Attributes
    ----------
    failure_threshold:
        Consecutive failures that trip a closed breaker open.
    cooldown_s:
        Simulated seconds an open breaker waits before admitting a
        half-open probe.
    cooldown_factor:
        Multiplier applied to the cooldown each time a half-open probe
        fails (exponential distrust of a flapping machine).
    max_cooldown_s:
        Cooldown ceiling.
    open_weight:
        Weight multiplier while open — small but strictly positive, so
        the partitioner still accepts the weight vector.
    half_open_weight:
        Weight multiplier for the probe share while half-open.
    """

    failure_threshold: int = 3
    cooldown_s: float = 30.0
    cooldown_factor: float = 2.0
    max_cooldown_s: float = 600.0
    open_weight: float = 1e-3
    half_open_weight: float = 0.25

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ServiceError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_s <= 0.0:
            raise ServiceError(f"cooldown_s must be > 0, got {self.cooldown_s}")
        if self.cooldown_factor < 1.0:
            raise ServiceError(
                f"cooldown_factor must be >= 1, got {self.cooldown_factor}"
            )
        if self.max_cooldown_s < self.cooldown_s:
            raise ServiceError("max_cooldown_s must be >= cooldown_s")
        if not 0.0 < self.open_weight <= 1.0:
            raise ServiceError(
                f"open_weight must be in (0, 1], got {self.open_weight}"
            )
        if not 0.0 < self.half_open_weight <= 1.0:
            raise ServiceError(
                f"half_open_weight must be in (0, 1], got {self.half_open_weight}"
            )


@dataclass(frozen=True)
class BreakerEvent:
    """One state transition, timestamped on the simulated clock."""

    time_s: float
    machine: int
    from_state: str
    to_state: str
    reason: str

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "time_s": self.time_s,
            "machine": self.machine,
            "from": self.from_state,
            "to": self.to_state,
            "reason": self.reason,
        }


@dataclass
class CircuitBreaker:
    """Breaker for a single machine slot (driven by :class:`BreakerBoard`)."""

    machine: int
    policy: BreakerPolicy
    state: str = STATE_CLOSED
    consecutive_failures: int = 0
    open_until_s: float = 0.0
    current_cooldown_s: float = field(default=0.0)
    trips: int = 0

    def __post_init__(self) -> None:
        if self.current_cooldown_s == 0.0:
            self.current_cooldown_s = self.policy.cooldown_s

    def refresh(self, now_s: float, events: List[BreakerEvent]) -> None:
        """Advance open → half-open once the cooldown has elapsed."""
        if self.state == STATE_OPEN and now_s >= self.open_until_s:
            events.append(
                BreakerEvent(
                    time_s=now_s,
                    machine=self.machine,
                    from_state=STATE_OPEN,
                    to_state=STATE_HALF_OPEN,
                    reason="cooldown elapsed",
                )
            )
            self.state = STATE_HALF_OPEN

    def record_failure(
        self, now_s: float, reason: str, events: List[BreakerEvent]
    ) -> None:
        if self.state == STATE_HALF_OPEN:
            # Failed probe: re-open with a longer cooldown.
            self.current_cooldown_s = min(
                self.current_cooldown_s * self.policy.cooldown_factor,
                self.policy.max_cooldown_s,
            )
            self.open_until_s = now_s + self.current_cooldown_s
            self.consecutive_failures += 1
            self.trips += 1
            events.append(
                BreakerEvent(
                    time_s=now_s,
                    machine=self.machine,
                    from_state=STATE_HALF_OPEN,
                    to_state=STATE_OPEN,
                    reason=f"probe failed: {reason}",
                )
            )
            self.state = STATE_OPEN
            return
        if self.state == STATE_OPEN:
            # Still cooling down; nothing new to learn.
            self.consecutive_failures += 1
            return
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.policy.failure_threshold:
            self.current_cooldown_s = self.policy.cooldown_s
            self.open_until_s = now_s + self.current_cooldown_s
            self.trips += 1
            events.append(
                BreakerEvent(
                    time_s=now_s,
                    machine=self.machine,
                    from_state=STATE_CLOSED,
                    to_state=STATE_OPEN,
                    reason=(
                        f"{self.consecutive_failures} consecutive failures: "
                        f"{reason}"
                    ),
                )
            )
            self.state = STATE_OPEN

    def record_success(self, now_s: float, events: List[BreakerEvent]) -> None:
        if self.state == STATE_HALF_OPEN:
            events.append(
                BreakerEvent(
                    time_s=now_s,
                    machine=self.machine,
                    from_state=STATE_HALF_OPEN,
                    to_state=STATE_CLOSED,
                    reason="probe succeeded",
                )
            )
            self.state = STATE_CLOSED
            self.current_cooldown_s = self.policy.cooldown_s
        self.consecutive_failures = 0

    def weight_multiplier(self) -> float:
        if self.state == STATE_OPEN:
            return self.policy.open_weight
        if self.state == STATE_HALF_OPEN:
            return self.policy.half_open_weight
        return 1.0


class BreakerBoard:
    """All machine breakers for one service, plus the transition log."""

    def __init__(self, num_machines: int, policy: BreakerPolicy):
        if num_machines < 1:
            raise ServiceError(f"num_machines must be >= 1, got {num_machines}")
        self.policy = policy
        self.breakers: Tuple[CircuitBreaker, ...] = tuple(
            CircuitBreaker(machine=i, policy=policy) for i in range(num_machines)
        )
        self.events: List[BreakerEvent] = []

    def refresh(self, now_s: float) -> None:
        """Advance every cooled-down open breaker to half-open at ``now_s``."""
        for breaker in self.breakers:
            breaker.refresh(now_s, self.events)

    def record_failures(self, machines: Tuple[int, ...], now_s: float, reason: str) -> None:
        """Feed failure evidence for the given machine slots."""
        for slot in sorted(set(machines)):
            if 0 <= slot < len(self.breakers):
                self.breakers[slot].record_failure(now_s, reason, self.events)

    def record_successes(self, machines: Tuple[int, ...], now_s: float) -> None:
        """Feed clean-run evidence for the given machine slots."""
        for slot in sorted(set(machines)):
            if 0 <= slot < len(self.breakers):
                self.breakers[slot].record_success(now_s, self.events)

    def multipliers(self) -> NDArray[np.float64]:
        """Per-slot weight multipliers under the current states."""
        return np.array(
            [b.weight_multiplier() for b in self.breakers], dtype=np.float64
        )

    def states(self) -> Tuple[str, ...]:
        return tuple(b.state for b in self.breakers)

    def total_trips(self) -> int:
        return sum(b.trips for b in self.breakers)

    def any_discounted(self) -> bool:
        """Whether any breaker currently down-weights its machine."""
        return any(b.state != STATE_CLOSED for b in self.breakers)

    def all_open(self) -> bool:
        """Whether every breaker is open (the whole cluster is distrusted).

        The federation reads this as "shard effectively dark": a shard
        whose entire board is open is routed around while any healthier
        shard is reachable, composing per-cluster breakers into
        federation-level backpressure.
        """
        return all(b.state == STATE_OPEN for b in self.breakers)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "states": list(self.states()),
            "trips": self.total_trips(),
            "events": [e.to_jsonable() for e in self.events],
        }
