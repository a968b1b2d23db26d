"""Analytical machine performance model.

This is the substitution for the paper's physical testbed: it converts the
*abstract work* an application performs (counted by the engine while the
algorithm really executes) into time on a given machine.  The model is a
small roofline variant with three terms:

``time = serial + parallel_compute + memory``

* **serial** — the application's inherently sequential portion runs on one
  core: ``serial_flops / (freq * ipc)``.
* **parallel_compute** — the parallel portion is divided across the
  machine's compute threads with an efficiency that decays gently with
  thread count (synchronisation and work-stealing overheads):
  ``flops / (threads * eff(threads) * freq * ipc)``.
* **memory** — traffic through the memory system at the machine's
  bandwidth.  Traffic splits into *streaming* bytes (compulsory, e.g.
  reading every edge once) and *cacheable* bytes (avoidable re-reads of hot
  adjacency data); the cacheable share is scaled by a miss rate determined
  by how much of the hot working set fits in the LLC.

Why these three terms reproduce the paper's Fig. 2 / Fig. 8 shapes:

* applications with a high bytes-per-flop ratio (PageRank) become
  memory-bound on big instances whose bandwidth grows sublinearly with
  thread count — the saturation between c4.4xlarge and c4.8xlarge;
* balanced applications (Coloring, Connected Components) track thread
  count nearly linearly;
* cache-hungry applications (Triangle Count re-reads neighbour lists)
  jump on the c4.8xlarge, whose two full sockets of LLC finally hold the
  hot set.

Because the cacheable term depends on the *input graph's* hot working set,
CCRs measured on synthetic proxies differ slightly from real graphs —
exactly the <10 % error the paper reports, with the largest gap on
Triangle Count (their only visible mismatch).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.machine import MachineSpec
from repro.errors import ClusterError

__all__ = ["WorkProfile", "PerformanceModel"]

_GIGA = 1e9


@dataclass(frozen=True)
class WorkProfile:
    """Abstract work performed by one machine during one execution phase.

    All quantities are extensive (they add across phases and machines).

    Attributes
    ----------
    flops:
        Parallelisable compute operations (abstract ops, ~1 simple ALU op).
    serial_flops:
        Operations in the application's sequential sections (per-superstep
        coordination, reductions on one thread, ...).
    streaming_bytes:
        Compulsory memory traffic — touched once, caches cannot help.
    cacheable_bytes:
        Re-read traffic that a sufficiently large LLC absorbs.
    working_set_mb:
        Size of the hot data whose residency determines the cacheable
        miss rate (e.g. the adjacency of high-degree vertices).
        Intensive: combining phases keeps the maximum.
    """

    flops: float = 0.0
    serial_flops: float = 0.0
    streaming_bytes: float = 0.0
    cacheable_bytes: float = 0.0
    working_set_mb: float = 0.0

    def __post_init__(self):
        for attr in (
            "flops",
            "serial_flops",
            "streaming_bytes",
            "cacheable_bytes",
            "working_set_mb",
        ):
            if getattr(self, attr) < 0:
                raise ClusterError(f"WorkProfile.{attr} must be >= 0")

    def __add__(self, other: "WorkProfile") -> "WorkProfile":
        if not isinstance(other, WorkProfile):
            return NotImplemented
        return WorkProfile(
            flops=self.flops + other.flops,
            serial_flops=self.serial_flops + other.serial_flops,
            streaming_bytes=self.streaming_bytes + other.streaming_bytes,
            cacheable_bytes=self.cacheable_bytes + other.cacheable_bytes,
            working_set_mb=max(self.working_set_mb, other.working_set_mb),
        )

    def scaled(self, factor: float) -> "WorkProfile":
        """Multiply the extensive quantities by ``factor``."""
        if factor < 0:
            raise ClusterError("scale factor must be >= 0")
        return replace(
            self,
            flops=self.flops * factor,
            serial_flops=self.serial_flops * factor,
            streaming_bytes=self.streaming_bytes * factor,
            cacheable_bytes=self.cacheable_bytes * factor,
        )

    @property
    def total_flops(self) -> float:
        return self.flops + self.serial_flops


class PerformanceModel:
    """Turns :class:`WorkProfile` into execution time on a machine.

    Parameters
    ----------
    model_scale:
        The fraction of the paper-scale graph being simulated (matches the
        ``scale`` passed to :func:`repro.graph.datasets.load_dataset`).
        Working sets measured on a scaled graph correspond to
        ``working_set / model_scale`` at full scale, so the LLC is compared
        against the *scaled* set by shrinking it with the same factor —
        this keeps cache-fit ratios scale-invariant.
    efficiency_decay:
        Per-extra-thread multiplicative efficiency loss of the parallel
        section (models synchronisation/NUMA overheads on top of Amdahl's
        explicit serial fraction).
    min_miss_rate:
        Floor of the cacheable miss rate — even a fully resident working
        set pays coherence/first-touch traffic.
    """

    def __init__(
        self,
        model_scale: float = 1.0,
        efficiency_decay: float = 0.006,
        min_miss_rate: float = 0.30,
    ):
        if not 0 < model_scale <= 1.0:
            raise ClusterError(f"model_scale must be in (0, 1], got {model_scale}")
        if not 0 <= efficiency_decay < 0.1:
            raise ClusterError("efficiency_decay must be in [0, 0.1)")
        if not 0 <= min_miss_rate <= 1:
            raise ClusterError("min_miss_rate must be in [0, 1]")
        self.model_scale = model_scale
        self.efficiency_decay = efficiency_decay
        self.min_miss_rate = min_miss_rate

    # ------------------------------------------------------------------ #

    def parallel_efficiency(self, threads: int) -> float:
        """Efficiency of the parallel section at a given thread count."""
        if threads < 1:
            raise ClusterError(f"threads must be >= 1, got {threads}")
        return 1.0 / (1.0 + self.efficiency_decay * (threads - 1))

    def miss_rate(self, machine: MachineSpec, working_set_mb: float) -> float:
        """Cacheable-traffic miss rate for a hot set on a machine's LLC."""
        if working_set_mb <= 0:
            return self.min_miss_rate
        effective_llc = machine.llc_mb * self.model_scale
        fit = min(1.0, effective_llc / working_set_mb)
        return max(self.min_miss_rate, 1.0 - fit)

    def execution_time(self, machine: MachineSpec, work: WorkProfile) -> float:
        """Seconds to execute ``work`` on ``machine``'s compute threads."""
        n = machine.compute_threads
        core_rate = machine.freq_ghz * machine.ipc * _GIGA  # ops/s, one core
        t_serial = work.serial_flops / core_rate
        t_parallel = work.flops / (n * self.parallel_efficiency(n) * core_rate)
        bytes_effective = work.streaming_bytes + work.cacheable_bytes * self.miss_rate(
            machine, work.working_set_mb
        )
        t_memory = bytes_effective / (machine.mem_bw_gbs * _GIGA)
        return t_serial + t_parallel + t_memory

    def throughput(self, machine: MachineSpec, work: WorkProfile) -> float:
        """Abstract ops per second achieved on ``work`` (for reports)."""
        t = self.execution_time(machine, work)
        if t == 0:
            raise ClusterError("throughput undefined for zero-time work")
        return work.total_flops / t

    def __repr__(self) -> str:
        return (
            f"PerformanceModel(model_scale={self.model_scale}, "
            f"efficiency_decay={self.efficiency_decay}, "
            f"min_miss_rate={self.min_miss_rate})"
        )
