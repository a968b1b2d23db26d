"""Checkpoint/restart cost model, bounded retries and the recovery bill.

Synchronous engines recover from fail-stop crashes by replaying from the
last globally consistent snapshot — the classic Chandy-Lamport-at-the-
barrier scheme PowerGraph and Pregel both use.  Two knobs govern the
recovery bill:

* :class:`CheckpointPolicy` — how often state is snapshotted and what one
  snapshot costs.  Frequent checkpoints mean short replays but a steady
  overhead tax on fault-free supersteps; rare checkpoints are cheap until
  something crashes.
* :class:`RetryPolicy` — how many restarts a run tolerates and how long
  it backs off between attempts (exponential with seeded jitter, the
  standard dogpile-avoidance shape).

Two pieces every recovering loop shares:

* :class:`RetryBudget` — restarts counted per site against one
  :class:`RetryPolicy`, each pause drawn from the caller's seeded rng.
  The static pricing walk, the streaming epoch loop, the job service's
  attempts and the summary store's locked writes all retry through it.
* :class:`RecoveryBill` — what recovery cost one run, with its total
  defined once.

Neither touches execution state, because in this simulator the
algorithm's values are deterministic and only *time and energy* need
recovering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional

import numpy as np

from repro.errors import FaultError

__all__ = ["CheckpointPolicy", "RecoveryBill", "RetryBudget", "RetryPolicy"]

_GIGA = 1e9


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to snapshot and what a snapshot costs.

    Attributes
    ----------
    interval:
        Checkpoint every ``interval`` supersteps (state at superstep 0 is
        the free implicit checkpoint — it is the input).  ``0`` disables
        checkpointing entirely: a crash then replays from the beginning.
    base_seconds:
        Fixed coordination cost per checkpoint (barrier + metadata).
    write_gbs:
        Per-machine snapshot write bandwidth in GB/s; the per-checkpoint
        cost is the *slowest* machine's state divided by this (the
        checkpoint is itself a barrier).
    restart_seconds:
        Time to bring a crashed machine back (reboot, rejoin, reload the
        last snapshot) before replay can begin.
    """

    interval: int = 10
    base_seconds: float = 0.05
    write_gbs: float = 1.0
    restart_seconds: float = 2.0

    def __post_init__(self):
        if self.interval < 0:
            raise FaultError("checkpoint interval must be >= 0 (0 disables)")
        if self.base_seconds < 0:
            raise FaultError("checkpoint base_seconds must be >= 0")
        if self.write_gbs <= 0:
            raise FaultError("checkpoint write_gbs must be > 0")
        if self.restart_seconds < 0:
            raise FaultError("restart_seconds must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.interval > 0

    def is_checkpoint_step(self, superstep: int) -> bool:
        """Whether a snapshot is taken after completing ``superstep``."""
        return self.enabled and (superstep + 1) % self.interval == 0

    def checkpoint_seconds(self, max_state_bytes: float) -> float:
        """Wall-clock cost of one snapshot barrier."""
        if max_state_bytes < 0:
            raise FaultError("state bytes must be >= 0")
        return self.base_seconds + max_state_bytes / (self.write_gbs * _GIGA)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded restarts with exponential backoff and jitter.

    Attributes
    ----------
    max_retries:
        Restarts tolerated per crash site before the run is declared
        failed with :class:`~repro.errors.RecoveryError`.
    backoff_base_s:
        Backoff before the first restart.
    backoff_factor:
        Multiplier applied per successive restart of the same site.
    jitter:
        Fraction of the backoff added as seeded uniform noise in
        ``[0, jitter)`` — deterministic given the pricing RNG, so priced
        reports stay reproducible.
    full_jitter:
        Switches to AWS-style *full jitter*: the pause is drawn uniformly
        from ``[0, base)`` where ``base`` is the exponential backoff for
        the attempt.  Full jitter decorrelates retry storms across many
        concurrent tenants, which is why the job service uses it; the
        default keeps the original bounded-jitter shape.  ``jitter`` is
        ignored in this mode.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    jitter: float = 0.1
    full_jitter: bool = False

    def __post_init__(self):
        if self.max_retries < 0:
            raise FaultError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise FaultError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise FaultError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise FaultError("jitter must be in [0, 1]")

    def backoff_seconds(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before restart number ``attempt`` (1-based)."""
        if attempt < 1:
            raise FaultError("attempt must be >= 1")
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        if self.full_jitter:
            return float(rng.uniform(0.0, base))
        if self.jitter == 0.0:
            return base
        return base * (1.0 + float(rng.uniform(0.0, self.jitter)))


class RetryBudget:
    """Restarts consumed per site against one :class:`RetryPolicy`.

    A *site* is whatever keeps failing: a (superstep, slot) on the static
    walk, an epoch in a stream, a job in the service, one write in the
    summary store.  Each pause is drawn through
    :meth:`RetryPolicy.backoff_seconds` from the caller's seeded ``rng``,
    so a replay that restarts in the same order draws the same pauses.
    """

    def __init__(self, policy: RetryPolicy, rng: np.random.Generator):
        self.policy = policy
        self._rng = rng
        self._restarts: Dict[Optional[Hashable], int] = {}

    def restart(self, site: Optional[Hashable] = None) -> int:
        """Count one more restart at ``site``; return its 1-based number."""
        attempt = self._restarts.get(site, 0) + 1
        self._restarts[site] = attempt
        return attempt

    def exhausted(self, attempt: int) -> bool:
        """Whether restart number ``attempt`` is over the budget."""
        return attempt > self.policy.max_retries

    def pause(self, attempt: int) -> float:
        """The seeded backoff before restart number ``attempt``."""
        return self.policy.backoff_seconds(attempt, self._rng)


@dataclass
class RecoveryBill:
    """What fault tolerance cost one run, on top of its productive pass.

    The static pricing walk bills per superstep
    (:func:`~repro.engine.resilient.simulate_resilient_execution`) and the
    streaming epoch loop per epoch
    (:class:`~repro.streaming.runner.StreamingSystem`); ``unit`` names
    which, and both fill the bill in place as they walk.  Every
    ``*_seconds`` field is wall-clock time spent on something other than
    the first pass over each unit, so under crash-only faults a
    disturbed run's runtime is its undisturbed runtime plus
    :attr:`overhead_seconds`.

    Attributes
    ----------
    crashes:
        Machine crashes recovered.
    replayed:
        Units executed again after rollbacks: the completed units since
        the last snapshot, plus each crashed unit's retry.
    checkpoints:
        Snapshots taken.
    lost_seconds:
        Work of the attempts that crashed (it ran, then was thrown away).
    replay_seconds:
        Completed units executed a second time after a rollback.
    restart_seconds, backoff_seconds:
        Bringing crashed machines back, and the seeded pause before it.
    checkpoint_seconds:
        Snapshot barriers.
    migration_seconds:
        Moving edges for a mid-run re-balance (static walk only).
    resumed_from_batch:
        Batch cursor a stream resumed from, ``None`` for a fresh run.
    """

    crashes: int = 0
    replayed: int = 0
    checkpoints: int = 0
    lost_seconds: float = 0.0
    replay_seconds: float = 0.0
    restart_seconds: float = 0.0
    backoff_seconds: float = 0.0
    checkpoint_seconds: float = 0.0
    migration_seconds: float = 0.0
    resumed_from_batch: Optional[int] = None
    unit: str = "superstep"

    @property
    def overhead_seconds(self) -> float:
        """The bill's total: every second not spent on the first pass."""
        return (
            self.lost_seconds
            + self.replay_seconds
            + self.restart_seconds
            + self.backoff_seconds
            + self.checkpoint_seconds
            + self.migration_seconds
        )

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-dict form; a stream's bill has no migration entry."""
        doc: Dict[str, Any] = {
            "crashes": self.crashes,
            f"replayed_{self.unit}s": self.replayed,
            "checkpoints_taken": self.checkpoints,
            "lost_seconds": self.lost_seconds,
            "replay_seconds": self.replay_seconds,
            "restart_seconds": self.restart_seconds,
            "backoff_seconds": self.backoff_seconds,
            "checkpoint_seconds": self.checkpoint_seconds,
        }
        if self.unit == "superstep":
            doc["migration_seconds"] = self.migration_seconds
        doc["overhead_seconds"] = self.overhead_seconds
        doc["resumed_from_batch"] = self.resumed_from_batch
        return doc
