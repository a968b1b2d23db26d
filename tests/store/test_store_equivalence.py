"""Differential store equivalence: cold vs warm vs mid-run-populated.

The headline PR-7 contract: a run served from a warm summary store is
**byte-identical** to a cold run — same assignment bytes, same
ExecutionTrace canonical JSON, same projected-runtime floats, same
experiment series — across every app × partitioner combination.  The
``scalar`` cells take their cold run from the reference loops under
``tests/oracle/`` instead, so the warm store is also checked against an
implementation that never touches a cache.  The store may change how
fast an answer arrives, never which answer arrives.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cost import projected_runtime_seconds
from repro.kernels.cache import (
    assignment_cache,
    attach_store,
    clear_all_caches,
    detach_store,
    estimate_cache,
    profile_trace_cache,
)
from repro.apps.registry import DEFAULT_APPS
from repro.powerlaw.generator import generate_power_law_graph
from repro.store import SummaryStore
from tests.oracle.pipeline import IMPLEMENTATIONS, run_pipeline

PARTITIONERS = ("random_hash", "grid", "oblivious", "hybrid", "ginger")
WEIGHTS = (1.0, 2.0, 1.5, 0.5)
NUM_MACHINES = 4


@pytest.fixture(scope="module")
def pl_graph():
    return generate_power_law_graph(num_vertices=200, alpha=2.0, seed=17)


def _cluster():
    from repro.cluster.catalog import get_machine
    from repro.cluster.cluster import Cluster
    from repro.cluster.perfmodel import PerformanceModel

    return Cluster(
        [get_machine("m4.2xlarge"), get_machine("c4.2xlarge")],
        perf=PerformanceModel(model_scale=0.01),
    )


def _run_pipeline(
    app_name, partitioner_name, graph, implementation="vectorized"
):
    """Partition + execute + project, with whatever caches are attached
    (``"scalar"``: on the reference loops, with no cache at all)."""
    from repro.service.estimate import projected_seconds

    res, trace = run_pipeline(
        implementation, app_name, partitioner_name, graph, NUM_MACHINES,
        np.array(WEIGHTS),
    )
    if implementation == "vectorized":
        projected = projected_seconds(_cluster(), app_name, graph)
    else:
        projected = projected_runtime_seconds(_cluster(), app_name, graph)
    return (
        res.assignment.tobytes(),
        trace.canonical_json(),
        repr(projected),
    )


@pytest.mark.parametrize("cold_implementation", IMPLEMENTATIONS)
@pytest.mark.parametrize("partitioner_name", PARTITIONERS)
@pytest.mark.parametrize("app_name", DEFAULT_APPS)
def test_cold_vs_warm_byte_identical(
    app_name, partitioner_name, cold_implementation, pl_graph, store
):
    """Every matrix cell: cold == populate == warm, byte for byte."""
    cold = _run_pipeline(
        app_name, partitioner_name, pl_graph, cold_implementation
    )

    # Populating pass: same run with an empty store attached.
    clear_all_caches()
    attach_store(store)
    populate = _run_pipeline(app_name, partitioner_name, pl_graph)

    # Warm pass: L1s emptied, every read that hits comes from sqlite.
    clear_all_caches()
    warm = _run_pipeline(app_name, partitioner_name, pl_graph)
    detach_store()

    assert cold == populate == warm
    # The warm pass actually exercised the store.
    total_store_hits = sum(
        c.stats()["store_hits"]
        for c in (assignment_cache, estimate_cache, profile_trace_cache)
    )
    assert total_store_hits >= 1


@pytest.mark.parametrize("app_name", DEFAULT_APPS)
def test_mid_run_populated_store_is_transparent(app_name, pl_graph, store):
    """A store warmed by a *different, overlapping* run must not perturb.

    The store is populated by a hybrid-partitioned run, then a
    ginger-partitioned run attaches it: profile traces and estimates hit
    warm, assignments miss — and every byte still matches the cold run.
    """
    cold = _run_pipeline(app_name, "ginger", pl_graph)

    clear_all_caches()
    attach_store(store)
    _run_pipeline(app_name, "hybrid", pl_graph)

    clear_all_caches()
    mixed = _run_pipeline(app_name, "ginger", pl_graph)
    detach_store()

    assert cold == mixed
    # The overlapping namespace really did serve warm rows (the estimate
    # short-circuits the profile-trace lookup, so it is the one that hits).
    assert estimate_cache.stats()["store_hits"] >= 1


def test_attach_mid_process_after_warm_l1(pl_graph, store):
    """Attaching a store to already-warm L1s neither loses nor changes
    anything: subsequent runs write through and still match."""
    cold = _run_pipeline("pagerank", "hybrid", pl_graph)
    attach_store(store)  # L1s stay warm; store starts empty
    live = _run_pipeline("pagerank", "hybrid", pl_graph)
    clear_all_caches()
    warm = _run_pipeline("pagerank", "hybrid", pl_graph)
    detach_store()
    assert cold == live == warm


def test_fig8a_series_identical_cold_vs_warm(store):
    """A whole experiment driver: identical BENCH-series rows from a
    warm store."""
    from repro.experiments.fig8 import run_fig8a

    kwargs = dict(scale=0.002, apps=("pagerank",), seed=100)
    clear_all_caches()
    cold_rows = run_fig8a(**kwargs).rows()

    clear_all_caches()
    attach_store(store)
    run_fig8a(**kwargs)  # populate
    clear_all_caches()
    warm_rows = run_fig8a(**kwargs).rows()
    detach_store()

    assert cold_rows == warm_rows


def test_warm_rows_survive_store_reopen(tmp_path, pl_graph):
    """Simulated process restart: rows written before close serve
    byte-identical results from a freshly opened handle."""
    path = str(tmp_path / "restart.db")
    with SummaryStore.create(path) as st:
        attach_store(st)
        first = _run_pipeline("pagerank", "hybrid", pl_graph)
        detach_store()

    clear_all_caches()
    with SummaryStore.open(path) as st:
        attach_store(st)
        second = _run_pipeline("pagerank", "hybrid", pl_graph)
        hits = sum(
            c.stats()["store_hits"]
            for c in (assignment_cache, estimate_cache, profile_trace_cache)
        )
        detach_store()
    assert first == second
    assert hits >= 1
