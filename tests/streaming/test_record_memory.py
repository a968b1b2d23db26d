"""What encoding one epoch record costs, by tracemalloc.

A PageRank epoch record from a 5,000-vertex graph, the ``stream-recover``
benchmark's scale, is about 226 KB of canonical JSON, most of it two
5,000-float arrays.  One ``json.dumps`` call holds every number's text
until it joins them: it peaked at 5.3x the text it returns.  The
canonical walker writes long arrays a run at a time, so building the
string costs the pieces plus the joined result, and hashing it costs
one run at a time.
"""

import json
import tracemalloc

import pytest

from repro.apps.registry import make_app
from repro.experiments.common import case1_cluster
from repro.partition import make_partitioner
from repro.powerlaw.generator import generate_power_law_graph
from repro.streaming import StreamingSystem, generate_stream
from repro.utils.canonical import canonical_digest, canonical_json

#: Peak over text length.  ``"".join`` holds the pieces and the result
#: at once, so the string cannot cost less than about 2x.
JSON_BOUND = 2.5
DIGEST_BOUND = 1.0


@pytest.fixture(scope="module")
def record():
    graph = generate_power_law_graph(num_vertices=5_000, alpha=2.1, seed=7)
    stream = generate_stream(
        graph, pattern="churn", num_batches=1, ops_per_batch=10, seed=7
    )
    result = StreamingSystem(case1_cluster(0.01), halo=1).run(
        make_app("pagerank"), graph, stream, make_partitioner("hybrid", seed=7)
    )
    return result.epochs[0].to_record()


def _traced_peak(action):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_record_is_the_benchmark_scale(record):
    text = canonical_json(record)
    assert text == json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert len(text) > 200_000


def test_canonical_json_peak(record):
    size = len(canonical_json(record))
    # One json.dumps call of the same record peaked at 5.3x.
    assert _traced_peak(lambda: canonical_json(record)) <= JSON_BOUND * size


def test_canonical_digest_peak(record):
    size = len(canonical_json(record))
    assert _traced_peak(lambda: canonical_digest(record)) <= DIGEST_BOUND * size
