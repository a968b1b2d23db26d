"""Command-line interface: ``python -m repro <command>``.

Eleven commands cover the library's main entry points without writing
code:

* ``generate``  — produce a synthetic power-law graph or a Table II
  stand-in and write it to disk (edge list or ``.npz``).
* ``profile``   — run proxy profiling for a cluster and print/persist the
  CCR pool (the one-time offline step of Fig. 7a).
* ``process``   — the Fig. 7b flow: run an application on a graph over a
  described cluster, under a chosen capability policy.  With
  ``--fault-schedule`` the same run is priced under that schedule:
  crashes recover from checkpoints, persistent stragglers trigger a
  mid-run re-balance.  With ``--obs-dir`` the run records spans, metrics,
  the execution trace and the invocation config into a run directory.
  With ``--mutations`` the run becomes a streaming deployment: mutation
  batches land between supersteps on the simulated clock and the
  incremental partitioner repairs the placement per batch (DESIGN.md
  §16).  Combining ``--mutations`` with ``--fault-schedule`` (crash
  faults only) and/or ``--checkpoint-every`` turns on the stream's
  recovery settings in the same epoch loop: epochs checkpoint on a
  durable cadence and injected crashes replay from the last snapshot
  without perturbing the trace bytes (DESIGN.md §17).
* ``stream``    — generate a seeded churn/growth/burst mutation stream
  for a graph and save it as versioned JSON (replay with
  ``process --mutations``), or describe an existing stream file.
* ``faults``    — sample a deterministic fault scenario from seeded rates
  and save/inspect it for replay with ``process --fault-schedule``; with
  ``--shards`` it samples a federation *shard-outage* schedule instead
  (crashes, partitions, scheduler slowdowns) for ``serve --shards``.
* ``experiment``— regenerate one of the paper's tables/figures
  (``--obs-dir`` records spans/metrics/provenance alongside).
* ``workload``  — sample a seeded open-loop (Poisson) job stream and
  write it as a replayable workload JSON file.
* ``serve``     — replay a workload file through the multi-tenant job
  service: admission control, deadlines, retries, circuit breakers and
  load shedding over fault-aware runs (DESIGN.md §12).  With
  ``--shards N`` the replay runs across N scheduler shards behind a
  consistent-hash ring with failover, work stealing, journaled crash
  recovery and shard-fault injection (DESIGN.md §13).  With
  ``--checkpoint-every N`` mutation-stream jobs checkpoint through a
  shared custody every N epochs, so a shard crash mid-stream fails the
  stream over to the next ring shard and resumes from the last durable
  snapshot (DESIGN.md §17).  Malformed
  workload files exit 2 with the offending ``jobs[i]`` record named.
* ``metrics``   — summarize one ``--obs-dir`` run directory, or diff two.
* ``lint``      — run the AST-based determinism & contract linter over
  the tree (text or ``--json``; exit 0 clean, 1 findings, 2 error).
* ``gen``       — manage the materialized summary store (DESIGN.md §14):
  ``--init`` creates it atomically, ``--all`` warms it by replaying a
  workload with the store attached, ``--refresh`` drops namespaces,
  ``--stats``/``--vacuum`` inspect and compact.  ``serve``, ``process``
  and ``experiment`` accept ``--store PATH`` to run against a warmed
  store; store failures are typed and exit 2.

Clusters are described as comma-separated machine type names from the
catalog (e.g. ``m4.2xlarge,m4.2xlarge,c4.2xlarge,c4.2xlarge``).

Every command shares one error contract, applied once in :func:`main`:

====  ================================================================
exit  meaning
====  ================================================================
0     success
1     the run failed: a fault-retry budget was exhausted
      (``RecoveryError``) or ``--strict`` saw no convergence
      (``ConvergenceError``); ``run FAILED: <message>`` on stdout.
      ``lint`` also exits 1 when it reports findings.
2     usage or input error: a bad argument or conflicting options, or
      any ``ReproError`` or ``OSError`` (missing or malformed input
      file, unknown machine type, unusable store);
      ``error: <message>`` on stderr, never a traceback.
====  ================================================================
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Optional, Sequence

from repro._version import __version__
from repro.errors import ReproError

__all__ = ["main", "build_parser"]


class _UsageError(ReproError):
    """Options that parse one by one but conflict, or a missing input."""


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #


def _positive_int(text: str) -> int:
    """argparse type: strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int_list(text: str) -> tuple:
    """argparse type: comma-separated strictly positive integers."""
    return tuple(_positive_int(s) for s in text.split(",") if s.strip())


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _rate(text: str) -> float:
    value = _nonnegative_float(text)
    if value > 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: strictly positive number (seconds, rates > 0)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _model_scale(text: str) -> float:
    """argparse type: graph scale in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"scale must be in (0, 1], got {value}"
        )
    return value


def _alpha(text: str) -> float:
    """argparse type: power-law exponent, must exceed 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"alpha must be > 1 for a normalisable power law, got {value}"
        )
    return value


def _registered(name: str, available, what: str) -> str:
    if name not in available:
        raise argparse.ArgumentTypeError(
            f"unknown {what} {name!r}; available: {sorted(available)}"
        )
    return name


def _app_name(text: str) -> str:
    """argparse type: a registered application name."""
    from repro.apps.registry import app_names

    return _registered(text, app_names(), "application")


def _app_list(text: str) -> tuple:
    """argparse type: comma-separated registered application names."""
    return tuple(_app_name(a.strip()) for a in text.split(",") if a.strip())


def _partitioner_name(text: str) -> str:
    """argparse type: a registered edge-partitioner name."""
    from repro.partition import PARTITIONERS

    return _registered(text, PARTITIONERS, "partitioner")


def _build_cluster(spec: str, scale: float):
    from repro.cluster.catalog import get_machine
    from repro.cluster.cluster import Cluster
    from repro.cluster.perfmodel import PerformanceModel

    names = [s.strip() for s in spec.split(",") if s.strip()]
    if not names:
        raise _UsageError("empty cluster description")
    machines = [get_machine(n) for n in names]
    return Cluster(machines, perf=PerformanceModel(model_scale=scale))


def _shard_clusters(args):
    """One cluster per ``;``-separated ``--cluster`` spec.

    With ``--shards`` a single spec is repeated for every shard, and any
    other spec count must equal the shard count.
    """
    specs = [s.strip() for s in args.cluster.split(";") if s.strip()]
    if args.shards is not None:
        if len(specs) == 1:
            specs = specs * args.shards
        if len(specs) != args.shards:
            raise _UsageError(
                f"--cluster describes {len(specs)} shard cluster(s) "
                f"but --shards is {args.shards} (separate per-shard specs "
                f"with ';', or give one spec for all shards)"
            )
    return [_build_cluster(spec, args.scale) for spec in specs]


def _make_estimator(policy: str, scale: float):
    from repro.core.estimators import (
        OracleEstimator,
        ProxyCCREstimator,
        ThreadCountEstimator,
        UniformEstimator,
    )
    from repro.core.profiler import ProxyProfiler
    from repro.core.proxy import ProxySet

    if policy == "default":
        return UniformEstimator()
    if policy == "threads":
        return ThreadCountEstimator()
    if policy == "oracle":
        return OracleEstimator()
    proxies = ProxySet(num_vertices=max(1000, round(3_200_000 * scale)))
    return ProxyCCREstimator(profiler=ProxyProfiler(proxies=proxies))


def _service_estimator(args):
    """The job service's estimator: ``None`` keeps its default weights."""
    if args.policy == "default":
        return None
    return _make_estimator(args.policy, args.scale)


def _service_policies(args):
    """``(ServicePolicy, BreakerPolicy)`` from the serve arguments."""
    from repro.service import BreakerPolicy, ServicePolicy

    policy = ServicePolicy(
        max_queue_depth=args.max_queue_depth,
        max_projected_wait_s=args.max_projected_wait,
        shed_queue_depth=args.shed_depth,
        shed_priority_max=args.shed_priority_max,
        shed_iteration_cap=args.shed_cap,
        max_attempts=args.max_attempts,
    )
    breaker = BreakerPolicy(
        failure_threshold=args.breaker_threshold,
        cooldown_s=args.breaker_cooldown,
    )
    return policy, breaker


@contextmanager
def _store_attached(args):
    """Open ``--store`` and back the kernel caches for the block.

    Yields the open :class:`~repro.store.store.SummaryStore` (or ``None``
    when no ``--store`` was given); detaches and closes on exit.  Typed
    store failures propagate — :func:`main` converts them to exit 2.
    """
    path = getattr(args, "store", None)
    if not path:
        yield None
        return
    from repro.kernels.cache import attach_store, detach_store
    from repro.store import SummaryStore

    store = SummaryStore.open(path)
    attach_store(store)
    try:
        yield store
    finally:
        detach_store()
        store.close()


def _obs_config(args) -> dict:
    """JSON-serialisable provenance snapshot of the CLI invocation."""
    from repro.analysis import RULESET_VERSION

    config = {k: v for k, v in vars(args).items() if k != "func"}
    config["repro_version"] = __version__
    # Which lint rule set vetted the tree that produced this run: ties a
    # figure back to the static guarantees in force when it was made.
    config["lint_ruleset_version"] = RULESET_VERSION
    return config


@contextmanager
def _observed(args, label: str = "observability artifacts:"):
    """Observe the block when ``--obs-dir`` is given.

    Yields a namespace on which the command sets ``trace`` (and, for an
    experiment, ``config``) once it has them.  On exit — also when the
    block raises, so a failed run keeps its spans and metrics — the
    kernel caches' counters are recorded as ``cache.*`` gauges, the run
    directory is written and ``label`` plus its path is printed.
    """
    run = SimpleNamespace(trace=None, config=None)
    if not args.obs_dir:
        yield run
        return
    from repro.kernels.cache import cache_stats
    from repro.obs import Observer, enabled, write_run_artifacts

    observer = Observer()
    try:
        with enabled(observer):
            yield run
    finally:
        for namespace, stats in cache_stats().items():
            for field in ("hits", "misses", "store_hits"):
                observer.metrics.gauge(
                    f"cache.{field}", namespace=namespace
                ).set(float(stats[field]))
        write_run_artifacts(
            observer,
            args.obs_dir,
            config=run.config or _obs_config(args),
            trace=run.trace,
        )
        print(f"{label} {args.obs_dir}")


def _persist_run_summary(store, clusters, workload, policy, shards, result):
    """Write one replay's metric summary into the store (serve --store)."""
    from repro.store.codecs import CODECS
    from repro.store.gen import run_summary_key

    store.put(
        "run_summary",
        run_summary_key(clusters, workload, policy, shards),
        CODECS["run_summary"].encode(result.summary()),
    )


def _load_graph(args):
    from repro.graph.datasets import load_dataset
    from repro.graph.io import read_edge_list, read_npz

    if args.dataset:
        return load_dataset(args.dataset, scale=args.scale)
    if args.graph_file:
        if args.graph_file.endswith(".npz"):
            return read_npz(args.graph_file)
        return read_edge_list(args.graph_file)
    raise _UsageError("provide --dataset or --graph-file")


# --------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------- #


def cmd_generate(args) -> int:
    from repro.graph.datasets import load_dataset
    from repro.graph.io import write_edge_list, write_npz
    from repro.graph.properties import graph_summary
    from repro.powerlaw.generator import generate_power_law_graph

    if args.dataset:
        graph = load_dataset(args.dataset, scale=args.scale)
    else:
        graph = generate_power_law_graph(
            num_vertices=args.vertices, alpha=args.alpha, seed=args.seed
        )
    if args.output.endswith(".npz"):
        write_npz(graph, args.output)
    else:
        write_edge_list(graph, args.output)
    s = graph_summary(graph)
    print(
        f"wrote {args.output}: |V|={s.num_vertices} |E|={s.num_edges} "
        f"avg degree {s.average_degree:.2f}"
    )
    return 0


def cmd_profile(args) -> int:
    from repro.core.profiler import ProxyProfiler
    from repro.core.proxy import ProxySet
    from repro.utils.tables import format_table

    cluster = _build_cluster(args.cluster, args.scale)
    proxies = ProxySet(
        num_vertices=max(1000, round(3_200_000 * args.scale)), seed=args.seed
    )
    profiler = (
        ProxyProfiler(proxies=proxies, apps=args.apps)
        if args.apps
        else ProxyProfiler(proxies=proxies)
    )
    report = profiler.profile(cluster)

    rows = []
    for app in report.pool.apps():
        for mtype, ratio in sorted(report.pool.get(app).as_dict().items()):
            rows.append((app, mtype, ratio))
    print(
        format_table(
            headers=("application", "machine type", "CCR"),
            rows=rows,
            title=f"CCR pool for {cluster!r}",
        )
    )
    if args.output:
        report.pool.save(args.output)
        print(f"pool saved to {args.output}")
    return 0


def cmd_process(args) -> int:
    from repro.apps.registry import make_app
    from repro.engine.runtime import GraphProcessingSystem
    from repro.faults.checkpoint import CheckpointPolicy, RetryPolicy
    from repro.faults.schedule import FaultSchedule
    from repro.partition import make_partitioner

    cluster = _build_cluster(args.cluster, args.scale)
    graph = _load_graph(args)
    estimator = _make_estimator(args.policy, args.scale)
    schedule = (
        FaultSchedule.load(args.fault_schedule) if args.fault_schedule else None
    )
    if args.mutations:
        return _process_streaming(args, cluster, graph, estimator, schedule)

    with _observed(args, "observability :") as run:
        with _store_attached(args):
            application = make_app(args.app)
            weights = estimator.weights(cluster, application.name, graph)
            system = GraphProcessingSystem(
                cluster,
                faults=schedule,
                checkpoint=CheckpointPolicy(interval=args.checkpoint_interval),
                retry=RetryPolicy(max_retries=args.max_retries),
                rebalance=not args.no_rebalance,
            )
            outcome = system.run(
                application,
                graph,
                make_partitioner(args.partitioner),
                weights=weights,
            )
        run.trace = outcome.trace
        report = outcome.report

        if args.strict and report.result.get("converged") is False:
            from repro.errors import ConvergenceError

            raise ConvergenceError(
                f"{report.app} did not converge within "
                f"{report.num_supersteps} supersteps"
            )

        print(f"application : {report.app}")
        print(f"cluster     : {cluster!r}")
        print(f"policy      : {args.policy} (weights "
              f"{[round(float(w), 4) for w in outcome.partition.weights]})")
        print(f"partitioner : {outcome.partition.algorithm} "
              f"(replication factor {outcome.dgraph.replication_factor:.2f})")
        print(f"supersteps  : {report.num_supersteps}")
        print(f"runtime     : {report.runtime_seconds * 1e3:.3f} ms")
        print(f"energy      : {report.energy_joules:.2f} J")
        for m in report.machines:
            print(
                f"  {m.machine}: busy {m.busy_seconds * 1e3:.3f} ms, "
                f"utilisation {m.utilization * 100:.0f}%"
            )
        recovery = getattr(report, "recovery", None)
        if recovery is not None:
            print(
                f"resilience  : {recovery.crashes} crash(es), "
                f"{recovery.replayed} superstep(s) replayed, "
                f"{recovery.checkpoints} checkpoint(s), "
                f"recovery overhead {recovery.overhead_seconds * 1e3:.3f} ms"
            )
            rebalance = report.rebalance
            if rebalance is not None:
                print(
                    f"rebalance   : at superstep {rebalance.superstep} "
                    f"(migration {rebalance.seconds * 1e3:.3f} ms)"
                )
        for warning in report.warnings:
            print(f"warning     : {warning}")
    return 0


def _process_streaming(args, cluster, graph, estimator, schedule) -> int:
    """``process --mutations``: run the app as a streaming deployment.

    With ``--fault-schedule`` or ``--checkpoint-every`` the stream's
    recovery is on: epochs checkpoint on the chosen cadence, injected
    crashes replay from the last durable snapshot, and the trace stays
    byte-identical to an undisturbed run (the recovery bill is reported
    separately).  Without either the run takes no snapshots.  With
    ``--strict`` an epoch that exhausts its superstep budget fails the
    run, naming the epoch.
    """
    from repro.apps.registry import make_app
    from repro.faults.checkpoint import CheckpointPolicy, RetryPolicy
    from repro.partition import make_partitioner
    from repro.partition.metrics import weighted_imbalance
    from repro.streaming import MutationStream, StreamingSystem
    from repro.utils.tables import format_table

    stream = MutationStream.load(args.mutations)
    resilient = schedule is not None or args.checkpoint_every is not None
    if args.checkpoint_every is not None:
        interval = args.checkpoint_every
    else:
        interval = 1 if resilient else 0
    application = make_app(args.app)
    with _observed(args, "observability :") as run:
        with _store_attached(args):
            weights = estimator.weights(cluster, application.name, graph)
            outcome = StreamingSystem(
                cluster,
                halo=args.halo,
                faults=schedule,
                checkpoint=CheckpointPolicy(interval=interval),
                retry=RetryPolicy(max_retries=args.max_retries),
            ).run_resilient(
                application,
                graph,
                stream,
                make_partitioner(args.partitioner),
                weights=weights,
            )
        result, recovery = outcome.result, outcome.recovery
        run.trace = result

        if args.strict:
            for e in result.epochs:
                if e.trace.result.get("converged") is False:
                    from repro.errors import ConvergenceError

                    raise ConvergenceError(
                        f"{result.app} did not converge within "
                        f"{e.report.num_supersteps} supersteps in stream "
                        f"epoch {e.epoch}"
                    )

        rows = []
        for e in result.epochs:
            if e.update is None:
                affected = reassigned = moved = "-"
            else:
                affected = e.update.affected_vertices
                reassigned = e.update.reassigned_edges
                moved = e.update.moved_edges
            rows.append(
                (
                    e.epoch,
                    e.partition.graph.num_edges,
                    f"{weighted_imbalance(e.partition):.4f}",
                    f"{e.report.runtime_seconds * 1e3:.3f}",
                    affected,
                    reassigned,
                    moved,
                )
            )
        print(
            format_table(
                headers=(
                    "epoch", "edges", "imbalance", "runtime (ms)",
                    "affected V", "reassigned E", "moved E",
                ),
                rows=rows,
                title=(
                    f"streaming run: {result.app} / {result.algorithm} "
                    f"(halo {result.halo}, {stream.num_batches} batch(es))"
                ),
            )
        )
        print(f"total runtime    : {result.total_runtime_seconds * 1e3:.3f} ms")
        print(f"reassigned edges : {result.total_reassigned_edges}")
        print(f"moved edges      : {result.total_moved_edges}")
        if resilient:
            print(
                f"resilience       : {recovery.crashes} crash(es), "
                f"{recovery.replayed} epoch(s) replayed, "
                f"{recovery.checkpoints} checkpoint(s), "
                f"recovery overhead {recovery.overhead_seconds * 1e3:.3f} ms"
            )
        if args.stream_out:
            with open(args.stream_out, "w", encoding="utf-8") as fh:
                fh.write(result.trace_json() + "\n")
            print(f"streaming trace written to {args.stream_out}")
    return 0


def cmd_stream(args) -> int:
    """Generate or describe a mutation-stream file (``repro stream``)."""
    from repro.streaming import MutationStream, generate_stream
    from repro.utils.tables import format_table

    if args.input:
        if args.output or args.dataset or args.graph_file:
            raise _UsageError(
                "--input (describe mode) cannot be combined with "
                "generation options"
            )
        stream = MutationStream.load(args.input)
        source = args.input
    else:
        if not args.output:
            raise _UsageError(
                "provide --output (generate mode) or --input "
                "(describe mode)"
            )
        stream = generate_stream(
            _load_graph(args),
            pattern=args.pattern,
            num_batches=args.batches,
            ops_per_batch=args.ops,
            seed=args.seed,
            burst_every=args.burst_every,
            burst_scale=args.burst_scale,
        )
        stream.save(args.output)
        source = args.output

    base = (
        f"{stream.base_vertices} base vertices"
        if stream.base_vertices is not None
        else "unpinned base"
    )
    print(
        format_table(
            headers=("batch", "op", "detail"),
            rows=list(stream.describe()),
            title=(
                f"mutation stream {source}: {stream.num_batches} batch(es), "
                f"{stream.num_ops} op(s), {base}"
            ),
        )
    )
    print(f"fingerprint : {stream.fingerprint()}")
    if not args.input:
        print(f"stream saved to {args.output}")
    return 0


def _cmd_shard_faults(args) -> int:
    """``faults --shards``: sample a shard-level outage scenario."""
    from repro.faults.shards import ShardFaultSchedule
    from repro.utils.tables import format_table

    schedule = ShardFaultSchedule.generate(
        num_shards=args.shards,
        horizon_s=args.horizon_s,
        seed=args.seed,
        crash_rate=args.crash_rate,
        downtime_s=args.downtime,
        partition_rate=args.partition_rate,
        partition_duration_s=args.partition_duration,
        slowdown_rate=args.slowdown_rate,
        slowdown_factor=args.slowdown_factor,
        slowdown_duration_s=args.slowdown_duration_s,
    )
    print(
        format_table(
            headers=("kind", "t (s)", "detail"),
            rows=[(k, f"{t:.4f}", d) for k, t, d in schedule.describe()],
            title=(
                f"shard fault schedule: {schedule.num_events} event(s) "
                f"over {args.horizon_s}s on {args.shards} shards "
                f"(seed {args.seed})"
            ),
        )
    )
    if args.output:
        schedule.save(args.output)
        print(f"schedule saved to {args.output}")
    return 0


def cmd_faults(args) -> int:
    from repro.faults.schedule import FaultSchedule
    from repro.utils.tables import format_table

    if args.shards is not None:
        return _cmd_shard_faults(args)
    if args.machines is None:
        raise _UsageError(
            "provide --machines (run-level faults) or --shards "
            "(federation shard faults)"
        )
    schedule = FaultSchedule.generate(
        num_machines=args.machines,
        num_supersteps=args.supersteps,
        seed=args.seed,
        crash_rate=args.crash_rate,
        slowdown_rate=args.slowdown_rate,
        slowdown_factor=args.slowdown_factor,
        slowdown_duration=args.slowdown_duration,
        network_rate=args.network_rate,
    )
    print(
        format_table(
            headers=("kind", "superstep", "detail"),
            rows=[(k, s, d) for k, s, d in schedule.describe()],
            title=(
                f"fault schedule: {schedule.num_events} event(s) over "
                f"{args.supersteps} supersteps on {args.machines} machines "
                f"(seed {args.seed})"
            ),
        )
    )
    if args.output:
        schedule.save(args.output)
        print(f"schedule saved to {args.output}")
    return 0


def cmd_workload(args) -> int:
    from repro.service import generate_workload

    workload = generate_workload(
        num_jobs=args.jobs,
        seed=args.seed,
        mean_interarrival_s=args.mean_interarrival,
        apps=args.apps,
        graph_sizes=args.graph_sizes,
        priorities=args.priorities,
        deadline_fraction=args.deadline_fraction,
        deadline_min_s=args.deadline_min,
        deadline_max_s=args.deadline_max,
        fault_fraction=args.fault_fraction,
        crash_rate=args.crash_rate,
        slowdown_rate=args.slowdown_rate,
        hot_machine=args.hot_machine,
        hot_fraction=args.hot_fraction,
        hot_repeats=args.hot_repeats,
    )
    if args.shards is not None:
        # Embed a seeded shard-outage scenario (workload format v2): one
        # file then pins the whole federated chaos replay.
        from dataclasses import replace as _dc_replace

        from repro.faults.shards import ShardFaultSchedule

        span_s = workload.jobs[-1].submit_s if workload.jobs else 0.0
        horizon = (
            args.shard_horizon
            if args.shard_horizon is not None
            else max(span_s, args.mean_interarrival) * 1.5
        )
        shard_faults = ShardFaultSchedule.generate(
            num_shards=args.shards,
            horizon_s=horizon,
            seed=(
                args.shard_fault_seed
                if args.shard_fault_seed is not None
                else args.seed
            ),
            crash_rate=args.shard_crash_rate,
            downtime_s=args.shard_downtime,
            partition_rate=args.shard_partition_rate,
            slowdown_rate=args.shard_slowdown_rate,
        )
        workload = _dc_replace(workload, shard_faults=shard_faults)
    workload.save(args.output)
    with_deadline = sum(1 for j in workload.jobs if j.deadline_s is not None)
    faulted = sum(
        1
        for j in workload.jobs
        if j.faults is not None or j.fault_rates is not None
    )
    span = workload.jobs[-1].submit_s if workload.jobs else 0.0
    shard_note = ""
    if workload.shard_faults is not None:
        shard_note = (
            f", {workload.shard_faults.num_events} shard fault(s) embedded"
        )
    print(
        f"wrote {args.output}: {workload.num_jobs} job(s) over "
        f"{span:.4f} simulated seconds "
        f"({with_deadline} with deadlines, {faulted} with faults, "
        f"seed {workload.seed}{shard_note})"
    )
    return 0


def _load_serve_workload(args):
    """Load the serve command's workload and apply its overrides."""
    from dataclasses import replace as _dc_replace

    from repro.service import Workload

    workload = Workload.load(args.workload)
    if args.deadline is not None:
        # A blanket deadline for jobs that do not carry their own.
        workload = _dc_replace(
            workload,
            jobs=tuple(
                job
                if job.deadline_s is not None
                else _dc_replace(job, deadline_s=args.deadline)
                for job in workload.jobs
            ),
        )
    if args.seed is not None:
        workload = _dc_replace(workload, seed=args.seed)
    return workload


def _print_service_report(args, workload, result) -> None:
    from repro.utils.tables import format_table

    print(
        format_table(
            headers=("metric", "value"),
            rows=sorted(result.summary().items()),
            title=(
                f"service replay: {workload.num_jobs} job(s) on "
                f"{args.cluster} (seed {workload.seed})"
            ),
        )
    )
    if result.breaker_events:
        print(
            format_table(
                headers=("t (s)", "machine", "transition", "reason"),
                rows=[
                    (
                        f"{e.time_s:.4f}",
                        e.machine,
                        f"{e.from_state} -> {e.to_state}",
                        e.reason,
                    )
                    for e in result.breaker_events
                ],
                title="breaker transitions",
            )
        )


def _print_federation_report(args, workload, result) -> None:
    from repro.utils.tables import format_table

    print(
        format_table(
            headers=("metric", "value"),
            rows=sorted(result.summary().items()),
            title=(
                f"federated replay: {workload.num_jobs} job(s) on "
                f"{args.shards} shard(s) (seed {workload.seed})"
            ),
        )
    )
    print(
        format_table(
            headers=(
                "shard", "machines", "completed", "max depth",
                "steals in/out", "failovers in/out", "crashes",
                "breaker trips",
            ),
            rows=[
                (
                    s.shard_id,
                    ",".join(s.cluster_machines),
                    s.jobs_completed,
                    s.max_queue_depth,
                    f"{s.steals_in}/{s.steals_out}",
                    f"{s.failovers_in}/{s.failovers_out}",
                    s.crashes,
                    s.breaker_trips,
                )
                for s in result.shards
            ],
            title="per-shard report",
        )
    )
    if result.events:
        print(
            format_table(
                headers=("t (s)", "kind", "shard", "job", "detail"),
                rows=[
                    (f"{e.time_s:.4f}", e.kind, e.shard, e.job_id, e.detail)
                    for e in result.events
                ],
                title="federation events",
            )
        )


def cmd_serve(args) -> int:
    """Replay a workload through the job service; with ``--shards``,
    through the federated service instead."""
    from repro.faults.checkpoint import CheckpointPolicy
    from repro.faults.shards import ShardFaultSchedule
    from repro.federation import FederationPolicy, FederationService
    from repro.service import JobService

    federated = args.shards is not None
    if args.shard_faults and not federated:
        raise _UsageError("--shard-faults requires --shards (federated mode)")
    clusters = (
        _shard_clusters(args)
        if federated
        else [_build_cluster(args.cluster, args.scale)]
    )
    workload = _load_serve_workload(args)
    shard_faults = (
        ShardFaultSchedule.load(args.shard_faults) if args.shard_faults else None
    )
    policy, breaker = _service_policies(args)
    federation = (
        FederationPolicy(
            ring_replicas=args.ring_replicas,
            steal_backlog=args.steal_backlog,
            max_global_backlog=args.global_backlog,
        )
        if federated
        else None
    )
    estimator = _service_estimator(args)

    with _observed(args) as run:
        with _store_attached(args) as store:
            custody = None
            stream_checkpoint = None
            if args.checkpoint_every is not None:
                from repro.streaming import CheckpointCustody

                custody = CheckpointCustody(store=store)
                stream_checkpoint = CheckpointPolicy(
                    interval=args.checkpoint_every
                )
            common = dict(
                policy=policy,
                breaker_policy=breaker,
                estimator=estimator,
                checkpoint=CheckpointPolicy(interval=args.checkpoint_interval),
                stream_checkpoint=stream_checkpoint,
            )
            if federated:
                result = FederationService(
                    clusters, federation=federation, custody=custody, **common
                ).run_workload(workload, shard_faults=shard_faults)
            else:
                result = JobService(
                    clusters[0], checkpoints=custody, **common
                ).run_workload(workload)
            if store is not None:
                _persist_run_summary(
                    store, clusters, workload, args.policy, args.shards, result
                )
        run.trace = result

        if args.json:
            import json as _json

            print(_json.dumps(result.summary(), indent=2, sort_keys=True))
        elif federated:
            _print_federation_report(args, workload, result)
        else:
            _print_service_report(args, workload, result)
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                fh.write(result.trace_json() + "\n")
            kind = "federation" if federated else "service"
            print(f"{kind} trace written to {args.trace_out}")
    return 0


_EXPERIMENTS = {
    "table1": ("repro.experiments.table1", "run_table1", False),
    "table2": ("repro.experiments.table2", "run_table2", True),
    "fig2": ("repro.experiments.fig2", "run_fig2", True),
    "fig6": ("repro.experiments.fig6", "run_fig6", False),
    "fig8a": ("repro.experiments.fig8", "run_fig8a", True),
    "fig8b": ("repro.experiments.fig8", "run_fig8b", True),
    "fig9": ("repro.experiments.fig9", "run_fig9", True),
    "fig10a": ("repro.experiments.fig10", "run_case2", True),
    "fig10b": ("repro.experiments.fig10", "run_case3", True),
    "fig11": ("repro.experiments.fig11", "run_fig11", True),
    "service_demo": ("repro.experiments.service_demo", "run_service_demo", True),
    "churn": ("repro.experiments.churn", "run_churn", True),
    "churn_faults": ("repro.experiments.churn_faults", "run_churn_faults", True),
    "churn_halo": ("repro.experiments.churn_faults", "run_halo_sweep", True),
}

#: Experiments that accept a ``mutations=`` stream override.
_MUTATION_EXPERIMENTS = ("churn", "churn_faults", "churn_halo")


def cmd_experiment(args) -> int:
    import importlib

    from repro.utils.tables import format_table

    module_name, func_name, takes_scale = _EXPERIMENTS[args.name]
    func = getattr(importlib.import_module(module_name), func_name)

    kwargs = {}
    if takes_scale:
        kwargs["scale"] = args.scale
    if args.mutations:
        if args.name not in _MUTATION_EXPERIMENTS:
            raise _UsageError(
                f"--mutations only applies to "
                f"{', '.join(_MUTATION_EXPERIMENTS)} (got {args.name!r})"
            )
        from repro.streaming import MutationStream

        kwargs["mutations"] = MutationStream.load(args.mutations)

    with _observed(args) as run:
        with _store_attached(args):
            result = func(**kwargs)
        run.config = getattr(result, "provenance", None)
        rows = result.rows()
        headers = (
            result.headers()
            if hasattr(result, "headers")
            else tuple(f"col{i}" for i in range(len(rows[0]) if rows else 0))
        )
        print(format_table(headers=headers, rows=rows,
                           title=f"experiment {args.name}"))
    return 0


def cmd_gen(args) -> int:
    """Manage the materialized summary store (``repro gen``)."""
    from repro.service import Workload
    from repro.store import SummaryStore
    from repro.store.gen import PERSISTED_NAMESPACES, warm_store

    if not (args.init or args.all or args.refresh or args.stats or args.vacuum):
        raise _UsageError(
            "nothing to do (pass --init, --all, --refresh, "
            "--stats and/or --vacuum)"
        )
    refresh = list(args.refresh or ())
    if "all" in refresh:
        refresh = list(PERSISTED_NAMESPACES)
    for namespace in refresh:
        if namespace not in PERSISTED_NAMESPACES:
            raise _UsageError(
                f"unknown namespace {namespace!r} "
                f"(choose from {', '.join(PERSISTED_NAMESPACES)} or 'all')"
            )
    if args.all:
        if not args.workload or not args.cluster:
            raise _UsageError("--all requires --workload and --cluster")
        workload = Workload.load(args.workload)
        clusters = _shard_clusters(args)
        estimator = _service_estimator(args)

    store = (
        SummaryStore.create(args.store)
        if args.init
        else SummaryStore.open(args.store)
    )
    try:
        if args.init:
            print(f"store initialised at {args.store} (or already present)")
        for namespace in refresh:
            dropped = store.delete_namespace(namespace)
            print(f"refreshed {namespace}: dropped {dropped} row(s)")
        if args.all:
            added = warm_store(
                store,
                workload,
                clusters,
                estimator=estimator,
                policy_name=args.policy,
                checkpoint_interval=args.checkpoint_interval,
            )
            for namespace, count in added.items():
                print(f"materialized {namespace}: +{count} row(s)")
            if not added:
                print("store already warm for this workload (no new rows)")
        if args.vacuum:
            dropped = store.vacuum()
            print(f"vacuumed: {dropped} quarantine record(s) dropped")
        if args.stats:
            from repro.utils.tables import format_table

            stats = store.stats()
            namespaces = stats["namespaces"]
            quarantined = stats["quarantined"]
            rows = [
                (ns, namespaces.get(ns, 0), quarantined.get(ns, 0))
                for ns in sorted(set(namespaces) | set(quarantined))
            ]
            print(
                format_table(
                    headers=("namespace", "rows", "quarantined"),
                    rows=rows,
                    title=(
                        f"summary store {args.store} "
                        f"(schema v{stats['schema_version']}, "
                        f"{stats['total_rows']} row(s))"
                    ),
                )
            )
    finally:
        store.close()
    return 0


def cmd_lint(args) -> int:
    """Run the determinism & contract linter (exit 0 clean, 1 findings)."""
    # Wall-clock here times the *linter*, not the simulation — the one
    # place in the library where reading the host clock is the point.
    from time import perf_counter  # repro: allow[DET001]

    from repro.analysis import (
        Baseline,
        SummaryCache,
        all_rules,
        lint_paths,
        render_json,
        render_text,
        ruleset_signature,
    )

    if args.write_baseline and not args.baseline:
        raise _UsageError("--write-baseline requires --baseline PATH")
    rules = all_rules(only=args.rules.split(",") if args.rules else None)
    baseline = (
        Baseline.load(args.baseline)
        if args.baseline and not args.write_baseline
        else None
    )
    cache = (
        SummaryCache(args.cache, ruleset_signature(rules))
        if args.cache
        else None
    )
    started = perf_counter()  # repro: allow[DET001]
    report = lint_paths(args.paths, rules=rules, baseline=baseline, cache=cache)
    elapsed = perf_counter() - started  # repro: allow[DET001]

    if args.graph and report.project is not None:
        import json as _json

        os.makedirs(args.graph, exist_ok=True)
        graph_doc = {
            "format_version": 1,
            "ruleset": ruleset_signature(rules),
            "call_graph": report.project.call_graph().to_jsonable(),
            "taint_edges": report.project.taint().taint_edges_jsonable(),
        }
        graph_path = os.path.join(args.graph, "lint-graph.json")
        with open(graph_path, "w", encoding="utf-8") as fh:
            _json.dump(graph_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if args.write_baseline:
        pruned = 0
        if os.path.isfile(args.baseline):
            try:
                previous = Baseline.load(args.baseline)
                pruned = len(previous.stale(report.findings))
            except ReproError as exc:
                print(
                    f"note: replacing unreadable baseline: {exc}",
                    file=sys.stderr,
                )
        Baseline.from_findings(report.findings).save(args.baseline)
        print(
            f"baseline with {len(report.findings)} entry(ies) written "
            f"to {args.baseline} ({pruned} stale entry(ies) pruned)"
        )
        return 0

    if args.stats:
        import json as _json

        stats = {
            "runtime_seconds": round(elapsed, 6),
            "files_scanned": report.files_scanned,
            "findings": len(report.findings),
            "suppressed": len(report.suppressed),
            "baselined": len(report.baselined),
            "stale_baseline": len(report.stale_baseline),
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "ruleset": ruleset_signature(rules),
            "per_rule": report.per_rule_counts(include_hidden=True),
        }
        with open(args.stats, "w", encoding="utf-8") as fh:
            _json.dump(stats, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if args.json:
        print(render_json(report, rules))
    else:
        print(render_text(report, rules))
    return 0 if report.clean else 1


def cmd_metrics(args) -> int:
    from repro.obs import diff_runs, summarize_run
    from repro.utils.tables import format_table

    if args.diff:
        print(
            format_table(
                headers=("metric", "a", "b", "delta (b-a)"),
                rows=diff_runs(args.run_dir, args.diff),
                title=f"metrics diff: {args.run_dir} vs {args.diff}",
            )
        )
    else:
        print(
            format_table(
                headers=("section", "key", "value"),
                rows=summarize_run(args.run_dir),
                title=f"run artifacts: {args.run_dir}",
            )
        )
    return 0


# --------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Proxy-guided load balancing of graph workloads "
        "(ICPP 2016 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a graph and write it")
    gen.add_argument("--dataset", help="Table II dataset name")
    gen.add_argument("--vertices", type=_positive_int, default=10_000,
                     help="vertices in the power-law graph (ignored with "
                     "--dataset; default 10000)")
    gen.add_argument("--alpha", type=_alpha, default=2.1,
                     help="power-law degree exponent, > 1 (ignored with "
                     "--dataset; default 2.1)")
    gen.add_argument("--seed", type=int, default=0,
                     help="generator seed for the power-law graph "
                     "(ignored with --dataset; default 0)")
    gen.add_argument("--scale", type=_model_scale, default=0.01,
                     help="fraction of the paper-scale --dataset to "
                     "build, in (0, 1] (default 0.01)")
    gen.add_argument("--output", required=True, help=".npz or edge-list path")
    gen.set_defaults(func=cmd_generate)

    prof = sub.add_parser("profile", help="proxy-profile a cluster (Fig. 7a)")
    prof.add_argument("--cluster", required=True,
                      help="comma-separated machine types")
    prof.add_argument("--apps", type=_app_list,
                      help="comma-separated app names (default all)")
    prof.add_argument("--scale", type=_model_scale, default=0.01,
                      help="fraction of paper scale, in (0, 1]; sizes "
                      "the proxy graphs and the cache model "
                      "(default 0.01)")
    prof.add_argument("--seed", type=int, default=100,
                      help="generator seed for the proxy graphs "
                      "(default 100)")
    prof.add_argument("--output", help="write the CCR pool JSON here")
    prof.set_defaults(func=cmd_profile)

    proc = sub.add_parser("process", help="run an application (Fig. 7b)")
    proc.add_argument("--cluster", required=True,
                      help="comma-separated machine types, one per "
                      "machine (e.g. m4.2xlarge,c4.2xlarge)")
    proc.add_argument("--app", required=True, type=_app_name,
                      help="application: pagerank, coloring, "
                      "connected_components or triangle_count")
    proc.add_argument("--dataset", help="Table II dataset name")
    proc.add_argument("--graph-file", help="edge list or .npz path")
    proc.add_argument("--policy", default="ccr",
                      choices=("default", "threads", "ccr", "oracle"),
                      help="how machine weights are estimated: default "
                      "(uniform), threads (hardware threads), ccr "
                      "(proxy-profiled CCRs, the paper's method) or "
                      "oracle (CCRs measured on the input graph); default ccr")
    proc.add_argument("--partitioner", default="hybrid",
                      type=_partitioner_name,
                      help="edge partitioner: hybrid, ginger, grid, "
                      "oblivious or random_hash (default hybrid)")
    proc.add_argument("--scale", type=_model_scale, default=0.01,
                      help="fraction of the paper-scale graph to "
                      "simulate, in (0, 1]; sizes --dataset, the proxy "
                      "graphs and the cache model (default 0.01)")
    proc.add_argument("--strict", action="store_true",
                      help="raise ConvergenceError if the superstep budget "
                      "is exhausted without convergence")
    proc.add_argument("--fault-schedule",
                      help="JSON fault scenario to inject (see the "
                      "`faults` command); prices the run under it, "
                      "with checkpoint recovery and re-balancing")
    proc.add_argument("--mutations",
                      help="mutation stream JSON (see the `stream` "
                      "command); runs the app as a streaming deployment "
                      "with incremental re-partitioning per batch")
    proc.add_argument("--halo", type=_nonnegative_int, default=1,
                      help="boundary-expansion radius of the incremental "
                      "partitioner (with --mutations; 0 repairs only the "
                      "touched vertices; default 1)")
    proc.add_argument("--stream-out",
                      help="write the byte-reproducible streaming trace "
                      "JSON here (with --mutations)")
    proc.add_argument("--checkpoint-interval", type=int, default=10,
                      help="supersteps between checkpoints under faults "
                      "(0 disables)")
    proc.add_argument("--checkpoint-every", type=int, default=None,
                      help="stream epochs between durable checkpoints "
                      "(with --mutations; 0 disables snapshots; default "
                      "1 when --fault-schedule is also given)")
    proc.add_argument("--max-retries", type=_positive_int, default=3,
                      help="restarts tolerated per crash site")
    proc.add_argument("--no-rebalance", action="store_true",
                      help="disable supervisor-triggered mid-run "
                      "re-partitioning")
    proc.add_argument("--obs-dir",
                      help="record spans + metrics + trace + config into "
                      "this run directory (see the `metrics` command)")
    proc.add_argument("--store",
                      help="summary store sqlite path (see `repro gen`); "
                      "warm rows are reused, new results are persisted")
    proc.set_defaults(func=cmd_process)

    stm = sub.add_parser(
        "stream", help="generate or describe a seeded graph-mutation "
        "stream (replay with `process --mutations`)"
    )
    stm.add_argument("--dataset", help="Table II dataset name")
    stm.add_argument("--graph-file", help="edge list or .npz path")
    stm.add_argument("--scale", type=_model_scale, default=0.01,
                     help="fraction of the paper-scale --dataset to "
                     "mutate, in (0, 1] (default 0.01)")
    stm.add_argument("--pattern", default="churn",
                     choices=("churn", "growth", "burst"),
                     help="mutation mix: steady churn, net growth, or "
                     "bursty churn spikes")
    stm.add_argument("--batches", type=_positive_int, default=8,
                     help="mutation batches (one epoch boundary each)")
    stm.add_argument("--ops", type=_positive_int, default=16,
                     help="operations per batch (burst pattern spikes "
                     "this every --burst-every batches)")
    stm.add_argument("--seed", type=int, default=0,
                     help="seed pinning every mutation draw (default 0)")
    stm.add_argument("--burst-every", type=_positive_int, default=4,
                     help="burst pattern: spike every Nth batch")
    stm.add_argument("--burst-scale", type=_positive_int, default=3,
                     help="burst pattern: spike size multiplier")
    stm.add_argument("--output", help="write the stream JSON here "
                     "(generate mode)")
    stm.add_argument("--input", help="describe an existing stream file "
                     "instead of generating")
    stm.set_defaults(func=cmd_stream)

    flt = sub.add_parser(
        "faults", help="sample a deterministic fault scenario "
        "(run-level with --machines, shard-level with --shards)"
    )
    flt.add_argument("--machines", type=_positive_int, default=None,
                     help="run-level mode: machines in the target cluster")
    flt.add_argument("--supersteps", type=_positive_int, default=50,
                     help="run-level mode: supersteps the schedule spans "
                     "(default 50)")
    flt.add_argument("--seed", type=int, default=0,
                     help="seed pinning every fault draw (default 0)")
    flt.add_argument("--crash-rate", type=_rate, default=0.0,
                     help="per-machine per-superstep crash probability "
                     "(with --shards: per-shard crash probability)")
    flt.add_argument("--slowdown-rate", type=_rate, default=0.0,
                     help="per-machine per-superstep slowdown probability "
                     "(with --shards: per-shard slowdown probability)")
    flt.add_argument("--slowdown-factor", type=_nonnegative_float, default=4.0,
                     help="how many times slower a slowed machine or "
                     "shard runs (default 4.0)")
    flt.add_argument("--slowdown-duration", type=_positive_int, default=5,
                     help="run-level mode: supersteps a slowdown lasts "
                     "(default 5)")
    flt.add_argument("--network-rate", type=_rate, default=0.0,
                     help="per-superstep network degradation probability")
    flt.add_argument("--shards", type=_positive_int, default=None,
                     help="shard-level mode: sample a federation "
                     "shard-outage schedule instead (replay with "
                     "`serve --shards --shard-faults`)")
    flt.add_argument("--horizon-s", type=_positive_float, default=5.0,
                     help="shard mode: fault times drawn over [0, H) "
                     "simulated seconds")
    flt.add_argument("--downtime", type=_positive_float, default=1.0,
                     help="shard mode: mean crash downtime (seconds)")
    flt.add_argument("--partition-rate", type=_rate, default=0.0,
                     help="shard mode: per-shard partition probability")
    flt.add_argument("--partition-duration", type=_positive_float,
                     default=0.5,
                     help="shard mode: mean partition length (seconds)")
    flt.add_argument("--slowdown-duration-s", type=_positive_float,
                     default=0.5,
                     help="shard mode: mean scheduler slowdown length "
                     "(seconds)")
    flt.add_argument("--output", help="write the schedule JSON here")
    flt.set_defaults(func=cmd_faults)

    wkl = sub.add_parser(
        "workload", help="sample a seeded open-loop job stream (JSON)"
    )
    wkl.add_argument("--jobs", type=_positive_int, default=50,
                     help="jobs in the stream (default 50)")
    wkl.add_argument("--seed", type=int, default=0,
                     help="seed pinning every job draw; also becomes the "
                     "workload's service seed (default 0)")
    wkl.add_argument("--mean-interarrival", type=_positive_float,
                     default=0.001,
                     help="mean exponential gap between submissions "
                     "(simulated seconds)")
    wkl.add_argument("--apps", type=_app_list,
                     default="pagerank,connected_components",
                     help="comma-separated application mix")
    wkl.add_argument("--graph-sizes", type=_positive_int_list,
                     default="600,900,1200",
                     help="comma-separated synthetic graph sizes "
                     "(vertices, each > 0)")
    wkl.add_argument("--priorities", type=_positive_int, default=3,
                     help="priorities drawn uniformly from 0..N-1")
    wkl.add_argument("--deadline-fraction", type=_rate, default=0.0,
                     help="fraction of jobs given a deadline")
    wkl.add_argument("--deadline-min", type=_positive_float, default=0.005,
                     help="shortest deadline drawn (simulated seconds "
                     "after submission)")
    wkl.add_argument("--deadline-max", type=_positive_float, default=0.05,
                     help="longest deadline drawn (simulated seconds "
                     "after submission)")
    wkl.add_argument("--fault-fraction", type=_rate, default=0.0,
                     help="fraction of jobs carrying seeded fault rates")
    wkl.add_argument("--crash-rate", type=_rate, default=0.01,
                     help="per-machine per-superstep crash probability "
                     "of a faulted job")
    wkl.add_argument("--slowdown-rate", type=_rate, default=0.0,
                     help="per-machine per-superstep slowdown probability "
                     "of a faulted job")
    wkl.add_argument("--hot-machine", type=int, default=None,
                     help="machine slot that repeatedly crashes in a "
                     "fraction of jobs (breaker demo)")
    wkl.add_argument("--hot-fraction", type=_rate, default=0.0,
                     help="fraction of jobs in which --hot-machine crashes")
    wkl.add_argument("--hot-repeats", type=_positive_int, default=1,
                     help="crashes of --hot-machine per affected job")
    wkl.add_argument("--shards", type=_positive_int, default=None,
                     help="embed a seeded shard-outage schedule for this "
                     "many federation shards (workload format v2)")
    wkl.add_argument("--shard-crash-rate", type=_rate, default=0.0,
                     help="per-shard crash probability for the embedded "
                     "schedule")
    wkl.add_argument("--shard-downtime", type=_positive_float, default=1.0,
                     help="mean shard crash downtime (simulated seconds)")
    wkl.add_argument("--shard-partition-rate", type=_rate, default=0.0,
                     help="per-shard network-partition probability for "
                     "the embedded schedule")
    wkl.add_argument("--shard-slowdown-rate", type=_rate, default=0.0,
                     help="per-shard scheduler-slowdown probability for "
                     "the embedded schedule")
    wkl.add_argument("--shard-horizon", type=_positive_float, default=None,
                     help="shard fault horizon (default: 1.5x the arrival "
                     "span)")
    wkl.add_argument("--shard-fault-seed", type=int, default=None,
                     help="seed for the embedded shard schedule "
                     "(default: the workload seed)")
    wkl.add_argument("--output", required=True,
                     help="workload JSON path (replay with `repro serve`)")
    wkl.set_defaults(func=cmd_workload)

    srv = sub.add_parser(
        "serve", help="replay a workload through the job service "
        "(DESIGN.md §12)"
    )
    srv.add_argument("--cluster", required=True,
                     help="comma-separated machine types; with --shards, "
                     "separate per-shard clusters with ';' (one spec = "
                     "every shard gets that cluster)")
    srv.add_argument("--workload", required=True,
                     help="workload JSON file (see the `workload` command)")
    srv.add_argument("--shards", type=_positive_int, default=None,
                     help="federated mode: replay across this many "
                     "scheduler shards behind a consistent-hash ring "
                     "(DESIGN.md §13)")
    srv.add_argument("--shard-faults",
                     help="shard-outage schedule JSON (see `faults "
                     "--shards`); overrides any schedule embedded in the "
                     "workload")
    srv.add_argument("--ring-replicas", type=_positive_int, default=64,
                     help="virtual points per shard on the routing ring")
    srv.add_argument("--steal-backlog", type=_positive_int, default=2,
                     help="queue length at which an idle shard may steal "
                     "from a backlogged peer")
    srv.add_argument("--global-backlog", type=_positive_int, default=None,
                     help="reject arrivals once this many jobs are queued "
                     "federation-wide (default: unbounded)")
    srv.add_argument("--scale", type=_model_scale, default=0.01,
                     help="fraction of paper scale, in (0, 1]; sizes the "
                     "cache model and the CCR proxies (default 0.01)")
    srv.add_argument("--seed", type=int, default=None,
                     help="override the workload's service seed")
    srv.add_argument("--deadline", type=_positive_float, default=None,
                     help="blanket deadline (seconds after submission) for "
                     "jobs without their own; must be > 0")
    srv.add_argument("--policy", default="default",
                     choices=("default", "threads", "ccr", "oracle"),
                     help="capability estimator for base partition weights")
    srv.add_argument("--max-queue-depth", type=_positive_int, default=8,
                     help="reject arrivals once this many jobs are queued")
    srv.add_argument("--max-projected-wait", type=_positive_float,
                     default=None,
                     help="reject arrivals whose projected wait exceeds "
                     "this many simulated seconds")
    srv.add_argument("--shed-depth", type=_positive_int, default=6,
                     help="backlog at which low-priority jobs run degraded")
    srv.add_argument("--shed-priority-max", type=int, default=0,
                     help="jobs with priority <= this are sheddable")
    srv.add_argument("--shed-cap", type=_positive_int, default=10,
                     help="iteration budget for degraded runs")
    srv.add_argument("--max-attempts", type=_positive_int, default=2,
                     help="service-level run attempts per job")
    srv.add_argument("--breaker-threshold", type=_positive_int, default=3,
                     help="consecutive failures that open a machine breaker")
    srv.add_argument("--breaker-cooldown", type=_positive_float, default=30.0,
                     help="simulated seconds before an open breaker probes")
    srv.add_argument("--checkpoint-interval", type=int, default=10,
                     help="supersteps between checkpoints under faults "
                     "(0 disables)")
    srv.add_argument("--checkpoint-every", type=int, default=None,
                     help="stream epochs between durable checkpoints for "
                     "mutation-stream jobs; wires a shared checkpoint "
                     "custody so shard crashes fail streams over "
                     "mid-stream instead of restarting them (with "
                     "--store the snapshots persist in the summary "
                     "store); 0 disables snapshots")
    srv.add_argument("--json", action="store_true",
                     help="print the metrics summary as JSON")
    srv.add_argument("--trace-out",
                     help="write the byte-reproducible service trace JSON "
                     "here")
    srv.add_argument("--obs-dir",
                     help="record spans + metrics + service trace + config "
                     "into this run directory")
    srv.add_argument("--store",
                     help="summary store sqlite path (see `repro gen`); "
                     "warm rows are reused and the replay's metric "
                     "summary is persisted")
    srv.set_defaults(func=cmd_serve)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", choices=sorted(_EXPERIMENTS),
                     help="table or figure to regenerate")
    exp.add_argument("--scale", type=_model_scale, default=0.01,
                     help="fraction of paper scale, in (0, 1], for "
                     "experiments that take one (default 0.01)")
    exp.add_argument("--mutations",
                     help="mutation stream JSON for the churn experiment "
                     "(default: a generated churn stream)")
    exp.add_argument("--obs-dir",
                     help="record the experiment's spans + metrics + "
                     "provenance into this run directory")
    exp.add_argument("--store",
                     help="summary store sqlite path (see `repro gen`); "
                     "warm rows are reused, new results are persisted")
    exp.set_defaults(func=cmd_experiment)

    genstore = sub.add_parser(
        "gen", help="manage the materialized summary store (DESIGN.md §14)"
    )
    genstore.add_argument("--store", required=True,
                          help="summary store sqlite path")
    genstore.add_argument("--init", action="store_true",
                          help="create the store atomically if missing "
                          "(idempotent over a valid store)")
    genstore.add_argument("--all", action="store_true",
                          help="warm the store by replaying --workload on "
                          "--cluster with the store attached")
    genstore.add_argument("--refresh", action="append", metavar="NAMESPACE",
                          help="drop one namespace's rows first "
                          "(repeatable; 'all' drops every namespace)")
    genstore.add_argument("--stats", action="store_true",
                          help="print per-namespace row counts and "
                          "quarantine state")
    genstore.add_argument("--vacuum", action="store_true",
                          help="drop quarantine records and compact the "
                          "store file")
    genstore.add_argument("--workload",
                          help="workload JSON to replay for --all")
    genstore.add_argument("--cluster",
                          help="cluster spec for --all; separate per-shard "
                          "clusters with ';'")
    genstore.add_argument("--shards", type=_positive_int, default=None,
                          help="warm through the federation across this "
                          "many shards (shared store)")
    genstore.add_argument("--policy", default="default",
                          choices=("default", "threads", "ccr", "oracle"),
                          help="estimator policy; must match the serve "
                          "invocation the warm rows should accelerate")
    genstore.add_argument("--scale", type=_model_scale, default=0.01,
                          help="fraction of paper scale, in (0, 1]; must "
                          "match the serve invocation the warm rows "
                          "should accelerate (default 0.01)")
    genstore.add_argument("--checkpoint-interval", type=int, default=10,
                          help="supersteps between checkpoints under "
                          "faults; must match the serve invocation "
                          "(default 10)")
    genstore.set_defaults(func=cmd_gen)

    lnt = sub.add_parser(
        "lint", help="run the determinism & contract linter (static "
        "analysis; see DESIGN.md §10)"
    )
    lnt.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lnt.add_argument("--json", action="store_true",
                     help="machine-readable report on stdout")
    lnt.add_argument("--rules",
                     help="comma-separated rule ids (default: all)")
    lnt.add_argument("--baseline",
                     help="baseline JSON of grandfathered findings")
    lnt.add_argument("--write-baseline", action="store_true",
                     help="write current findings to --baseline and exit 0")
    lnt.add_argument("--stats",
                     help="write runtime + per-rule counts JSON here")
    lnt.add_argument("--cache",
                     help="summary-cache JSON path; unchanged files (by "
                     "content sha256) skip parsing on warm runs")
    lnt.add_argument("--graph",
                     help="directory to write the whole-program call "
                     "graph + taint edges (lint-graph.json)")
    lnt.set_defaults(func=cmd_lint)

    met = sub.add_parser(
        "metrics", help="summarize or diff observability run artifacts"
    )
    met.add_argument("run_dir", help="run directory written by --obs-dir")
    met.add_argument("--diff", metavar="OTHER_RUN_DIR",
                     help="compare against a second run directory")
    met.set_defaults(func=cmd_metrics)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The one place errors become exit codes (table in the module
    docstring): argparse exits 2 itself, a failed run exits 1, and any
    other library or I/O error exits 2 with one ``error:`` line.
    """
    args = build_parser().parse_args(argv)
    from repro.errors import ConvergenceError, RecoveryError

    try:
        return args.func(args)
    except (RecoveryError, ConvergenceError) as exc:
        print(f"run FAILED: {exc}")
        return 1
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
