"""The five benchmark workloads.

Each workload is closed loop: one run at a time, in one process with no
extra threads.  ``prepare`` turns ``--seed`` into input files once; a
rep then imports ``repro`` and loads those files (``setup``), runs the
timed window (``run``) and checks the output after the window
(``check``).  ``repro`` is imported inside these methods only, so that
importing this module costs nothing and the import can be timed.

Why these five: each stresses a different layer, and for each layer one
workload exercises it while the others bypass it (see README.md).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Tuple

#: Inputs of the default seed are the ones ``expected.json`` pins.
DEFAULT_SEED = 17

CASE1_MACHINES = ("m4.2xlarge", "m4.2xlarge", "c4.2xlarge", "c4.2xlarge")
SHARD_MACHINES = ("m4.2xlarge", "c4.2xlarge")
APPS = ("pagerank", "coloring", "connected_components", "triangle_count")
PARTITIONERS = ("random_hash", "oblivious", "grid", "hybrid", "ginger")
#: Partitioner and recovery-jitter seed: system settings, not inputs, so
#: they stay fixed while ``--seed`` varies the inputs.
SYSTEM_SEED = 9


def digest(payload: Any) -> str:
    """sha256 of a canonical JSON rendering (floats by repr, arrays as lists)."""
    text = json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        default=lambda o: o.tolist() if hasattr(o, "tolist") else repr(o),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def relabeled(graph: Any, seed: int) -> Any:
    """``graph`` under a seeded permutation of its vertex ids.

    Each seed gets its own input, with the size and degree distribution
    of the base graph, so the work a rep does stays level across seeds.
    """
    import numpy as np
    from repro import DiGraph

    perm = np.random.default_rng(seed).permutation(graph.num_vertices)
    src, dst = graph.edges()
    return DiGraph(graph.num_vertices, perm[src], perm[dst])


def cluster(names: Tuple[str, ...], scale: float) -> Any:
    from repro import Cluster, PerformanceModel, get_machine

    return Cluster(
        [get_machine(n) for n in names], perf=PerformanceModel(model_scale=scale)
    )


class Workload:
    """One named scenario; subclasses fill in the steps."""

    name = ""
    why = ""
    #: Modules a rep imports during set-up (timed as ``setup.import_s``).
    modules: Tuple[str, ...] = ("repro",)
    #: Input sizes: ``full`` for measurements, ``smoke`` for tests.
    sizes: Dict[str, Dict[str, Any]] = {}

    def ops(self, p: Dict[str, Any]) -> int:
        """Operations one rep attempts: app runs, sweep cells, replays or
        stream runs."""
        return 1

    def prepare(self, p: Dict[str, Any], seed: int, inputs: Path) -> None:
        raise NotImplementedError

    def setup(self, p: Dict[str, Any], inputs: Path, scratch: Path) -> SimpleNamespace:
        raise NotImplementedError

    def run(self, s: SimpleNamespace) -> Any:
        raise NotImplementedError

    def check(self, s: SimpleNamespace, out: Any) -> Tuple[str, int, List[str]]:
        """(output digest, failed ops, broken invariants), after the window."""
        raise NotImplementedError

    def close(self, s: SimpleNamespace) -> None:
        """Release what ``setup`` opened."""


class ProcessCold(Workload):
    name = "process-cold"
    why = (
        "Fig. 7 flow: four apps on four machine types with empty caches, "
        "where proxy profiling dominates"
    )
    machines = ("c4.xlarge", "c4.2xlarge", "m4.2xlarge", "r3.2xlarge")
    # Proxies keep the paper's 3.2 M vertices scaled like the input graph;
    # they are the system's own graphs, so the seed leaves them alone.
    sizes = {
        "full": {"scale": 0.0125, "proxy_vertices": 40_000},
        "smoke": {"scale": 0.002, "proxy_vertices": 6_400},
    }

    def ops(self, p):
        return len(APPS)

    def prepare(self, p, seed, inputs):
        from repro import load_dataset
        from repro.graph.io import write_npz

        graph = relabeled(load_dataset("wiki", scale=p["scale"]), seed)
        write_npz(graph, inputs / "wiki.npz")

    def setup(self, p, inputs, scratch):
        from repro import ProxyCCREstimator, ProxyGuidedSystem, ProxyProfiler, ProxySet
        from repro.graph.io import read_npz

        proxies = ProxySet(num_vertices=p["proxy_vertices"])
        estimator = ProxyCCREstimator(profiler=ProxyProfiler(proxies=proxies))
        return SimpleNamespace(
            graph=read_npz(inputs / "wiki.npz"),
            system=ProxyGuidedSystem(cluster(self.machines, p["scale"]), estimator=estimator),
        )

    def run(self, s):
        return [s.system.process(app, s.graph).report for app in APPS]

    def check(self, s, reports):
        errors = [
            f"{r.app} did not converge in {r.num_supersteps} supersteps"
            for r in reports
            if r.result.get("converged") is False
        ]
        return digest([dataclasses.asdict(r) for r in reports]), len(errors), errors


class SweepWarm(Workload):
    name = "sweep-warm"
    why = (
        "Fig. 9 sweep of 40 cells on a large graph with a prepared CCR pool, "
        "so profiling is bypassed and partition, layout and engine dominate"
    )
    sizes = {
        "full": {"scale": 0.04, "pool_proxy_vertices": 16_000},
        "smoke": {"scale": 0.005, "pool_proxy_vertices": 2_000},
    }

    def ops(self, p):
        return len(APPS) * 2 * len(PARTITIONERS)

    def prepare(self, p, seed, inputs):
        from repro import ProxyProfiler, ProxySet, load_dataset
        from repro.graph.io import write_npz

        write_npz(relabeled(load_dataset("amazon", scale=p["scale"]), seed), inputs / "amazon.npz")
        proxies = ProxySet(num_vertices=p["pool_proxy_vertices"])
        report = ProxyProfiler(proxies=proxies).profile(cluster(CASE1_MACHINES, p["scale"]))
        report.pool.save(inputs / "pool.json")

    def setup(self, p, inputs, scratch):
        from repro import CCRPool, GraphProcessingSystem
        from repro.graph.io import read_npz

        return SimpleNamespace(
            graph=read_npz(inputs / "amazon.npz"),
            pool=CCRPool.load(inputs / "pool.json"),
            system=GraphProcessingSystem(cluster(CASE1_MACHINES, p["scale"])),
        )

    def run(self, s):
        from repro import ThreadCountEstimator, make_app, make_partitioner

        # Weights come straight from the prepared pool: the CCR estimator
        # would discard a pool it did not profile itself.
        machines = s.system.cluster
        reports = []
        for app in APPS:
            prior = ThreadCountEstimator().weights(machines, app)
            for weights in (prior, s.pool.get(app).weights_for(machines)):
                for algorithm in PARTITIONERS:
                    partitioner = make_partitioner(algorithm, seed=SYSTEM_SEED)
                    outcome = s.system.run(make_app(app), s.graph, partitioner, weights=weights)
                    reports.append(outcome.report)
        return reports

    def check(self, s, reports):
        return digest([dataclasses.asdict(r) for r in reports]), 0, []


class ServeFed(Workload):
    name = "serve-fed"
    why = (
        "Poisson job replay on 8 federated shards with one shard crash: many "
        "tiny inputs, where per-call and per-superstep cost dominates"
    )
    modules = ("repro", "repro.service", "repro.federation")
    sizes = {
        "full": {"jobs": 500, "shards": 8, "mean_gap_s": 0.02},
        "smoke": {"jobs": 60, "shards": 8, "mean_gap_s": 0.02},
    }

    def prepare(self, p, seed, inputs):
        from repro.faults import ShardCrash, ShardFaultSchedule
        from repro.service import Workload as Jobs
        from repro.service import generate_workload

        jobs = generate_workload(p["jobs"], seed=seed, mean_interarrival_s=p["mean_gap_s"])
        horizon = max(j.submit_s for j in jobs.jobs)
        crash = ShardCrash(
            time_s=round(horizon / 3.0, 6),
            shard=p["shards"] - 1,
            downtime_s=round(horizon / 10.0, 6),
        )
        faults = ShardFaultSchedule(crashes=(crash,))
        Jobs(jobs=jobs.jobs, seed=seed, shard_faults=faults).save(str(inputs / "jobs.json"))

    def setup(self, p, inputs, scratch):
        from repro.federation import FederationPolicy, FederationService
        from repro.service import ServicePolicy
        from repro.service import Workload as Jobs

        return SimpleNamespace(
            jobs=Jobs.load(str(inputs / "jobs.json")),
            service=FederationService(
                [cluster(SHARD_MACHINES, 0.01) for _ in range(p["shards"])],
                policy=ServicePolicy(max_queue_depth=8),
                federation=FederationPolicy(steal_backlog=2),
            ),
        )

    def run(self, s):
        return s.service.run_workload(s.jobs)

    def check(self, s, result):
        # Every record is terminal by type; each job must have exactly one.
        records = Counter(r.job_id for r in result.records)
        submitted = [job.job_id for job in s.jobs.jobs]
        errors = [f"{j} has {records[j]} terminal records" for j in submitted if records[j] != 1]
        errors += [f"{j} has a record but was never submitted" for j in records.keys() - submitted]
        return digest(result.trace_json()), min(1, len(errors)), errors


def _write_stream_inputs(p: Dict[str, Any], seed: int, inputs: Path) -> None:
    from repro.graph.io import write_npz
    from repro.powerlaw.generator import generate_power_law_graph
    from repro.streaming import generate_stream

    graph = relabeled(generate_power_law_graph(num_vertices=p["vertices"], alpha=2.1), seed)
    write_npz(graph, inputs / "graph.npz")
    stream = generate_stream(
        graph, pattern="churn", num_batches=p["batches"], ops_per_batch=p["ops"], seed=seed
    )
    stream.save(str(inputs / "stream.json"))


def _stream_state(inputs: Path, system: Any) -> SimpleNamespace:
    from repro.graph.io import read_npz
    from repro.streaming import MutationStream

    return SimpleNamespace(
        graph=read_npz(inputs / "graph.npz"),
        stream=MutationStream.load(str(inputs / "stream.json")),
        system=system,
    )


class StreamChurn(Workload):
    name = "stream-churn"
    why = (
        "undisturbed churn stream with Ginger and halo 1: incremental repair "
        "with no checkpoint or store work"
    )
    modules = ("repro", "repro.streaming")
    sizes = {
        "full": {"vertices": 20_000, "batches": 16, "ops": 200},
        "smoke": {"vertices": 3_000, "batches": 4, "ops": 20},
    }

    def prepare(self, p, seed, inputs):
        _write_stream_inputs(p, seed, inputs)

    def setup(self, p, inputs, scratch):
        from repro.streaming import StreamingSystem

        system = StreamingSystem(cluster(CASE1_MACHINES, 0.01), halo=1)
        return _stream_state(inputs, system)

    def run(self, s):
        from repro import make_app, make_partitioner

        partitioner = make_partitioner("ginger", seed=SYSTEM_SEED)
        return s.system.run(make_app("pagerank"), s.graph, s.stream, partitioner)

    def check(self, s, result):
        return digest(result.trace_json()), 0, []


class StreamRecover(Workload):
    name = "stream-recover"
    why = (
        "churn stream with one crash and checkpoints every 2 epochs into a "
        "fresh summary store: the only workload with store writes"
    )
    modules = ("repro", "repro.streaming", "repro.store")
    sizes = {
        "full": {"vertices": 5_000, "batches": 12, "ops": 50, "crash_epoch": 7},
        "smoke": {"vertices": 1_000, "batches": 6, "ops": 10, "crash_epoch": 4},
    }

    def prepare(self, p, seed, inputs):
        from repro import CrashFault, FaultSchedule

        _write_stream_inputs(p, seed, inputs)
        crash = CrashFault(superstep=p["crash_epoch"], machine=0)
        FaultSchedule(crashes=(crash,)).save(inputs / "faults.json")

    def setup(self, p, inputs, scratch):
        from repro import CheckpointPolicy, FaultSchedule, RetryPolicy
        from repro.store import SummaryStore
        from repro.streaming import CheckpointCustody, ResilientStreamingSystem

        path = scratch / f"store-{os.getpid()}.sqlite"
        store = SummaryStore.create(str(path))
        system = ResilientStreamingSystem(
            cluster(CASE1_MACHINES, 0.01),
            halo=1,
            faults=FaultSchedule.load(inputs / "faults.json"),
            checkpoint=CheckpointPolicy(interval=2),
            retry=RetryPolicy(),
            seed=SYSTEM_SEED,
            custody=CheckpointCustody(store),
            job_id=self.name,
        )
        s = _stream_state(inputs, system)
        s.store, s.path = store, path
        return s

    def run(self, s):
        from repro import make_app, make_partitioner

        partitioner = make_partitioner("hybrid", seed=SYSTEM_SEED)
        return s.system.run_resilient(make_app("pagerank"), s.graph, s.stream, partitioner)

    def check(self, s, outcome):
        from repro import make_app, make_partitioner
        from repro.streaming import StreamingSystem

        undisturbed = StreamingSystem(s.system.cluster, halo=1).run(
            make_app("pagerank"), s.graph, s.stream, make_partitioner("hybrid", seed=SYSTEM_SEED)
        )
        trace = outcome.result.trace_json()
        errors = []
        if trace != undisturbed.trace_json():
            errors.append("recovered trace differs from the undisturbed run")
        if outcome.recovery.crashes != 1:
            errors.append(f"{outcome.recovery.crashes} crashes recovered, expected 1")
        return digest([trace, outcome.recovery.to_jsonable()]), min(1, len(errors)), errors

    def close(self, s):
        s.store.close()
        os.unlink(s.path)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (ProcessCold(), SweepWarm(), ServeFed(), StreamChurn(), StreamRecover())
}
