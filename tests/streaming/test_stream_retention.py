"""What a finished stream keeps alive: one epoch's graph, not every one.

An :class:`EpochOutcome` holds its record's inputs (counts, assignment
digest, imbalance, trace, report) and never its graph or partition, and
the epoch loop releases each replaced epoch's layout from the ``dgraph``
cache.  These tests pin both holders on a 16-batch churn stream: the
cache keeps one layout of the run with the same miss count as before,
no epoch reaches a ``DiGraph``, and the memory a run leaves behind stays
near two epochs' graph plus layout, however long the stream.
"""

import gc
import tracemalloc
import types

import pytest

from repro.apps.registry import make_app
from repro.engine.distributed_graph import DistributedGraph
from repro.engine.runtime import execute_partition, layout_key
from repro.graph.digraph import DiGraph
from repro.kernels.cache import (
    assignment_cache,
    clear_all_caches,
    dgraph_cache,
)
from repro.partition import PartitionResult, make_partitioner
from repro.powerlaw.generator import generate_power_law_graph
from repro.streaming import (
    EpochOutcome,
    MutationBatch,
    MutationStream,
    StreamingSystem,
    generate_stream,
)
from repro.testing import golden_cluster

BATCHES = 16


@pytest.fixture(scope="module")
def graph():
    return generate_power_law_graph(num_vertices=3000, alpha=2.1, seed=3)


@pytest.fixture(scope="module")
def stream(graph):
    return generate_stream(
        graph, pattern="churn", num_batches=BATCHES, ops_per_batch=40, seed=5
    )


def _run(graph, stream, app="pagerank"):
    return StreamingSystem(golden_cluster(), halo=1).run(
        make_app(app), graph, stream, make_partitioner("ginger", seed=9)
    )


def _reachable(root, kinds):
    """Instances of ``kinds`` reachable from ``root`` through instance
    references (classes, modules and functions are not followed)."""
    opaque = (type, types.ModuleType, types.FunctionType, types.MethodType)
    seen = set()
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        if isinstance(obj, kinds):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def _retained(action):
    """Bytes still allocated, by tracemalloc, after ``action`` returns,
    while its result is held; and that result."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = action()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base, kept
    finally:
        tracemalloc.stop()


class TestLayoutRelease:
    def test_cache_holds_one_layout_of_the_run(self, graph, stream):
        result = _run(graph, stream)
        assert result.num_epochs == BATCHES + 1
        stats = dgraph_cache.stats()
        # Every epoch missed, as when every layout was kept: no stream
        # epoch of a churn run lays out an earlier partition again.
        assert (stats["hits"], stats["misses"]) == (0, BATCHES + 1)
        assert stats["size"] == 1
        held = ("dgraph",) + layout_key(result.final_partition)
        assert dgraph_cache.get(held) is not None

    def test_empty_batches_keep_their_layout_hit(self, graph):
        empty = MutationStream(batches=(MutationBatch(()),) * 3)
        result = _run(graph, empty)
        assert result.num_epochs == 4
        stats = dgraph_cache.stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (3, 1, 1)
        assert len({e.assignment_sha256 for e in result.epochs}) == 1


class TestLeanEpochs:
    def test_no_epoch_reaches_a_graph(self, graph, stream):
        result = _run(graph, stream)
        assert all(isinstance(e, EpochOutcome) for e in result.epochs)
        for epoch in result.epochs:
            assert not _reachable(
                epoch, (DiGraph, PartitionResult, DistributedGraph)
            ), epoch.epoch
        # The result itself keeps the live last partition.
        assert result.final_partition.graph.num_edges == (
            result.epochs[-1].num_edges
        )

    def test_run_retains_about_one_epoch(self, graph, stream):
        # Triangle Count's trace is a few numbers per superstep, so what a
        # run retains is its graphs and layouts, not its epoch records.
        app = "triangle_count"

        def run():
            result = _run(graph, stream, app)
            # The assignment cache keeps each repair's placement array
            # (never a graph) up to its entry bound; it is not what this
            # test is about.
            assignment_cache.clear()
            return result

        retained, result = _retained(run)
        final = result.final_partition
        clear_all_caches()
        # What one epoch costs to hold: a fresh copy of the final graph,
        # its partition, layout and trace, run once so that every lazily
        # built graph structure is counted too.
        src, dst = final.graph.edges()

        def one_epoch():
            copy = PartitionResult(
                graph=DiGraph(final.graph.num_vertices, src.copy(), dst.copy()),
                assignment=final.assignment.copy(),
                num_machines=final.num_machines,
                algorithm=final.algorithm,
                weights=final.weights,
            )
            return execute_partition(make_app(app), copy)

        epoch_bytes, _ = _retained(one_epoch)
        # Keeping every epoch's graph and layout retained 17 times this.
        assert retained < 2 * epoch_bytes, (retained, epoch_bytes)
