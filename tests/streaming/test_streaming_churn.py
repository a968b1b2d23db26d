"""Incremental vs full re-partitioning under churn, per algorithm.

One seeded churn stream (the ``repro experiment churn`` setup: Case 1
cluster, a 1200-vertex power-law graph at scale 0.01, six 12-op batches)
is replayed through the incremental partitioner and through a full
re-partition per batch, for every Case 1 partitioning algorithm.  All of
it is deterministic, so the placement work, migration volume, final
imbalance and streaming-trace digest are held to the recorded values
exactly.  Two invariants hold unconditionally: the streaming trace is
byte-identical across two runs, and incremental placement work is
strictly below the full re-partition's.
"""

import hashlib

import pytest

from repro.apps.registry import make_app
from repro.experiments.churn import run_churn
from repro.experiments.common import case1_cluster
from repro.partition import make_partitioner
from repro.powerlaw.generator import generate_power_law_graph
from repro.streaming import StreamingSystem, generate_stream

SCALE = 0.01
SEED = 9

#: Fingerprint of the churn stream the generator draws from ``SEED``.
STREAM_FINGERPRINT = "acdb60df64edee4e82e6a0769940b8294c77264f198d706d57c489ee92d013c3"

#: Per algorithm: (incremental reassigned, full reassigned, incremental
#: moved, full moved, incremental imbalance, full imbalance), the
#: imbalances rounded to 6 decimals.
CHURN_BASELINE = {
    "ginger": (16776, 22919, 6022, 1959, 1.046218, 1.028361),
    "grid": (16776, 22919, 7323, 6877, 1.082983, 1.02416),
    "hybrid": (16776, 22919, 0, 0, 1.087185, 1.087185),
    "oblivious": (16776, 22919, 0, 0, 1.375, 1.375),
    "random_hash": (16776, 22919, 0, 0, 1.016807, 1.016807),
}

#: sha256 of the pagerank streaming trace (halo 1) per algorithm.
TRACE_SHA256 = {
    "ginger": "956b2f4430f4b012e56f1906de816d531f1a657e31817d7157103321cbede41d",
    "grid": "e6ca778e75f9580110b17e8f666f8469473e829ecfb2d2b40f800dc5c7186888",
    "hybrid": "62f996af3754404ad53078c2a3bbedce575e6bcba22eb1cfa4845d8b5a6a633a",
    "oblivious": "24621ffd4df631bd427a3c2a9ef0581a05545be5362053d97b73e8e2aa6f4f3c",
    "random_hash": "0bb292deb33a922bce74ff0c012be65ba59bbbf54e9fd5d7d0c3f8f51ffa6b4f",
}


@pytest.fixture(scope="module")
def graph():
    return generate_power_law_graph(
        num_vertices=max(200, round(120_000 * SCALE)), alpha=2.1, seed=1234
    )


@pytest.fixture(scope="module")
def stream(graph):
    return generate_stream(
        graph, pattern="churn", num_batches=6, ops_per_batch=12, seed=SEED
    )


@pytest.fixture(scope="module")
def churn_rows(stream):
    result = run_churn(scale=SCALE, mutations=stream)
    return {row.algorithm: row for row in result.rows_list}


def _streaming_trace(graph, stream, algorithm):
    system = StreamingSystem(case1_cluster(SCALE), halo=1)
    return system.run(
        make_app("pagerank"), graph, stream, make_partitioner(algorithm, seed=SEED)
    ).trace_json()


def test_stream_fingerprint_matches_recorded(stream):
    assert stream.fingerprint() == STREAM_FINGERPRINT


def test_every_algorithm_is_measured(churn_rows):
    assert sorted(churn_rows) == sorted(CHURN_BASELINE)


@pytest.mark.parametrize("algorithm", sorted(CHURN_BASELINE))
def test_placement_migration_and_imbalance_match_recorded(churn_rows, algorithm):
    row = churn_rows[algorithm]
    measured = (
        row.incremental_reassigned,
        row.full_reassigned,
        row.incremental_moved,
        row.full_moved,
        round(row.incremental_imbalance, 6),
        round(row.full_imbalance, 6),
    )
    assert measured == CHURN_BASELINE[algorithm]


@pytest.mark.parametrize("algorithm", sorted(CHURN_BASELINE))
def test_incremental_work_strictly_below_full(churn_rows, algorithm):
    row = churn_rows[algorithm]
    assert row.incremental_reassigned < row.full_reassigned


@pytest.mark.parametrize("algorithm", sorted(TRACE_SHA256))
def test_streaming_trace_is_byte_identical_and_recorded(graph, stream, algorithm):
    first = _streaming_trace(graph, stream, algorithm)
    second = _streaming_trace(graph, stream, algorithm)
    assert first == second
    assert hashlib.sha256(first.encode("utf-8")).hexdigest() == TRACE_SHA256[algorithm]
