"""Fault injection and resilience policies.

The static simulator assumes machines never fail and never slow down; this
package is where that assumption is deliberately broken.  It provides:

* :class:`FaultSchedule` and its typed events (:class:`CrashFault`,
  :class:`SlowdownFault`, :class:`NetworkFault`) — deterministic, seeded
  failure scenarios;
* :class:`CheckpointPolicy` / :class:`RetryPolicy` — the checkpoint/
  restart cost model and the bounded-backoff recovery budget;
* :class:`Supervisor` — persistent-straggler detection from barrier
  timings, which a faulted run answers by re-balancing.

The execution-side counterpart (fault-aware pricing and the resilient
runtime) lives in :mod:`repro.engine.resilient`; everything here is plain
policy data so scenarios can be saved, shared and replayed.
"""

from repro.faults.checkpoint import CheckpointPolicy, RetryPolicy
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
from repro.faults.supervisor import StragglerReport, Supervisor

__all__ = [
    "CrashFault",
    "SlowdownFault",
    "NetworkFault",
    "FaultSchedule",
    "ShardCrash",
    "ShardPartition",
    "ShardSlowdown",
    "ShardFaultSchedule",
    "CheckpointPolicy",
    "RetryPolicy",
    "StragglerReport",
    "Supervisor",
]
