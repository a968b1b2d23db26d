"""repro — Proxy-Guided Load Balancing of Graph Processing Workloads.

A faithful, fully-simulated reproduction of Song et al., ICPP 2016: a
heterogeneity-aware graph-processing stack in which machine capability is
measured by profiling synthetic power-law *proxy graphs* (the CCR metric)
instead of reading hardware thread counts, and used to weight PowerGraph's
partitioning algorithms.

Quickstart::

    from repro import (
        Cluster, get_machine, PerformanceModel,
        ProxyGuidedSystem, load_dataset,
    )

    scale = 0.01
    cluster = Cluster(
        [get_machine("m4.2xlarge")] * 2 + [get_machine("c4.2xlarge")] * 2,
        perf=PerformanceModel(model_scale=scale),
    )
    system = ProxyGuidedSystem(cluster)
    outcome = system.process("pagerank", load_dataset("wiki", scale=scale))
    print(outcome.report.runtime_seconds, outcome.report.energy_joules)

See DESIGN.md for the system inventory and the paper-to-simulation
substitutions, and EXPERIMENTS.md for the reproduced tables and figures.
"""

from repro._version import __version__
from repro.errors import (
    ClusterError,
    ConvergenceError,
    EngineError,
    FaultError,
    GraphError,
    GraphFormatError,
    PartitionError,
    ProfilingError,
    RecoveryError,
    ReproError,
)
from repro.graph import DiGraph, GraphBuilder, load_dataset, dataset_names
from repro.powerlaw import (
    PowerLawDistribution,
    generate_power_law_graph,
    solve_alpha,
)
from repro.cluster import (
    Cluster,
    MachineSpec,
    NetworkModel,
    PerformanceModel,
    WorkProfile,
    get_machine,
    machine_names,
)
from repro.partition import (
    PARTITIONERS,
    make_partitioner,
    partition_stats,
    replication_factor,
)
from repro.engine import (
    DistributedGraph,
    ExecutionReport,
    GraphProcessingSystem,
    ResilientExecutionReport,
    simulate_execution,
    simulate_resilient_execution,
)
from repro.faults import (
    CheckpointPolicy,
    CrashFault,
    FaultSchedule,
    NetworkFault,
    RetryPolicy,
    SlowdownFault,
    Supervisor,
)
from repro.apps import DEFAULT_APPS, make_app
from repro.core import (
    CCRPool,
    CCRTable,
    OracleEstimator,
    ProxyCCREstimator,
    ProxyGuidedSystem,
    ProxyProfiler,
    ProxySet,
    ThreadCountEstimator,
    UniformEstimator,
    cost_efficiency,
    pareto_front,
)

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "PartitionError",
    "ClusterError",
    "ProfilingError",
    "EngineError",
    "ConvergenceError",
    "FaultError",
    "RecoveryError",
    # graph
    "DiGraph",
    "GraphBuilder",
    "load_dataset",
    "dataset_names",
    # powerlaw
    "PowerLawDistribution",
    "generate_power_law_graph",
    "solve_alpha",
    # cluster
    "Cluster",
    "MachineSpec",
    "NetworkModel",
    "PerformanceModel",
    "WorkProfile",
    "get_machine",
    "machine_names",
    # partition
    "PARTITIONERS",
    "make_partitioner",
    "partition_stats",
    "replication_factor",
    # engine
    "DistributedGraph",
    "ExecutionReport",
    "GraphProcessingSystem",
    "ResilientExecutionReport",
    "simulate_execution",
    "simulate_resilient_execution",
    # faults
    "CrashFault",
    "SlowdownFault",
    "NetworkFault",
    "FaultSchedule",
    "CheckpointPolicy",
    "RetryPolicy",
    "Supervisor",
    # apps
    "DEFAULT_APPS",
    "make_app",
    # core
    "CCRPool",
    "CCRTable",
    "ProxySet",
    "ProxyProfiler",
    "ProxyCCREstimator",
    "ThreadCountEstimator",
    "UniformEstimator",
    "OracleEstimator",
    "ProxyGuidedSystem",
    "cost_efficiency",
    "pareto_front",
]
