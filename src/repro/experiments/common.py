"""Shared experiment scaffolding.

Every experiment module exposes ``run(scale=...) -> <Result>`` returning a
structured result with a ``rows()`` method; ``repro experiment`` and
``tests/paper/`` print those rows in the layout of the corresponding paper
table/figure.

The cluster builders here encode the paper's three evaluation cases:

* **Case 1** (Section V-B.1): EC2 machines with the *same* number of
  computing threads — 2× m4.2xlarge + 2× c4.2xlarge — which prior work
  treats as homogeneous.
* **Case 2** (Section V-B.2): local machines with different core counts —
  a 4-computing-thread small Xeon and a 12-computing-thread large Xeon —
  at the same frequency range.
* **Case 3** (Section V-B.3): the same pair with the small machine
  frequency-capped at 1.8 GHz to emulate a tiny (ARM-like) server.

Note on Case 2's small machine: Table I lists "Xeon Server S" with 4
hardware / 2 computing threads, while Section V-B.2's text says the small
machine has *4 computing threads*.  We follow the experiment text (the
numbers the results depend on) and derive a 6-HW-thread variant of the
small server for Cases 2 and 3.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro._version import __version__
from repro.cluster.catalog import get_machine, tiny_server, xeon_large, xeon_small
from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineSpec
from repro.cluster.perfmodel import PerformanceModel
from repro.obs import context as obs

__all__ = [
    "DEFAULT_SCALE",
    "C4_FAMILY",
    "SAME_THREAD_CATEGORIES",
    "REAL_GRAPHS",
    "CASE1_PARTITIONERS",
    "TWO_MACHINE_PARTITIONERS",
    "make_perf",
    "case1_cluster",
    "case2_cluster",
    "case3_cluster",
    "case2_machines",
    "case3_machines",
    "experiment_provenance",
    "attach_provenance",
]

#: Fraction of the paper-scale graphs used by default (fits one core).
DEFAULT_SCALE = 0.01

#: Fig. 2 / Fig. 8a machine ladder (compute-optimised family).
C4_FAMILY: Tuple[str, ...] = (
    "c4.xlarge",
    "c4.2xlarge",
    "c4.4xlarge",
    "c4.8xlarge",
)

#: Fig. 8b: same computing threads, three categories.
SAME_THREAD_CATEGORIES: Tuple[str, ...] = (
    "m4.2xlarge",
    "c4.2xlarge",
    "r3.2xlarge",
)

#: The four natural graphs of Table II.
REAL_GRAPHS: Tuple[str, ...] = ("amazon", "citation", "social_network", "wiki")

#: Fig. 9 sweeps all five algorithms (the 4-machine Case 1 cluster is a
#: perfect square, so Grid applies).
CASE1_PARTITIONERS: Tuple[str, ...] = (
    "random_hash",
    "oblivious",
    "grid",
    "hybrid",
    "ginger",
)

#: Cases 2/3 run on two machines; Grid needs a square machine count, so
#: the paper's remaining four algorithms apply.
TWO_MACHINE_PARTITIONERS: Tuple[str, ...] = (
    "random_hash",
    "oblivious",
    "hybrid",
    "ginger",
)


def experiment_provenance(
    experiment: str, scale: Optional[float] = None, **params: Any
) -> Dict[str, Any]:
    """Provenance record for one figure/table regeneration.

    Everything that determines the numbers: experiment name, library
    version, graph scale, and the experiment-specific parameters.  No
    wall-clock timestamp — runs are deterministic and the record should
    be too.
    """
    prov: Dict[str, Any] = {
        "experiment": experiment,
        "repro_version": __version__,
    }
    if scale is not None:
        prov["scale"] = scale
    prov.update(params)
    return prov


def attach_provenance(result, experiment: str, scale=None, **params):
    """Stamp ``result.provenance`` and mirror it into the span stream.

    Every ``run_*`` entry point routes its return value through here, so
    a figure regenerated under ``repro experiment --obs-dir`` (or any
    installed observer) carries the configuration that produced it.
    """
    prov = experiment_provenance(experiment, scale=scale, **params)
    result.provenance = prov
    obs.event("experiment/provenance", **prov)
    return result


def make_perf(scale: float) -> PerformanceModel:
    """Performance model configured for a given dataset scale."""
    return PerformanceModel(model_scale=scale)


def case1_cluster(scale: float = DEFAULT_SCALE) -> Cluster:
    """2× m4.2xlarge + 2× c4.2xlarge (same computing threads)."""
    return Cluster(
        [get_machine("m4.2xlarge")] * 2 + [get_machine("c4.2xlarge")] * 2,
        perf=make_perf(scale),
    )


def case2_machines() -> List[MachineSpec]:
    """Small (4 computing threads) and large (12) local Xeons."""
    small = replace(xeon_small(), name="xeon_s_4t", hw_threads=6)
    large = replace(xeon_large(), name="xeon_l_12t", hw_threads=14)
    return [small, large]


def case2_cluster(scale: float = DEFAULT_SCALE) -> Cluster:
    return Cluster(case2_machines(), perf=make_perf(scale))


def case3_machines() -> List[MachineSpec]:
    """Tiny emulated server (4 threads @ 1.8 GHz) and the large Xeon."""
    tiny = replace(tiny_server(), name="xeon_tiny_1.8ghz", hw_threads=6)
    large = replace(xeon_large(), name="xeon_l_12t", hw_threads=14)
    return [tiny, large]


def case3_cluster(scale: float = DEFAULT_SCALE) -> Cluster:
    return Cluster(case3_machines(), perf=make_perf(scale))
