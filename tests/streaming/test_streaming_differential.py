"""Differential churn harness: incremental repair vs replay-from-scratch.

The incremental partitioner's contract is that its per-batch assignment
is a pure function of (base strategy config, halo, weight history, batch
history).  The harness pins that three ways:

* **Replay determinism** — for every strategy, production and the
  reference Ginger of ``tests/oracle/`` alike, a fresh
  :class:`IncrementalPartitioner` replayed from scratch up to batch *k*
  reproduces the continuous run's assignment at batch *k* byte-for-byte,
  and both implementations agree on every batch;
* **Quality** — the repaired partition's weighted imbalance stays within
  a pinned factor of a full per-batch re-partition's;
* **Trace identity** — full streaming runs (4 apps x 5 strategies) are
  byte-identical across two executions, the first from cold caches and
  the second from warm ones.
"""

import numpy as np
import pytest

from repro.apps.registry import DEFAULT_APPS, make_app
from repro.partition import make_partitioner
from repro.partition.metrics import weighted_imbalance
from repro.partition.oblivious import ObliviousPartitioner
from repro.powerlaw.generator import generate_power_law_graph
from repro.streaming import (
    IncrementalPartitioner,
    StreamingSystem,
    apply_batch,
    generate_stream,
)
from repro.experiments.common import CASE1_PARTITIONERS, case1_cluster
from tests.oracle.pipeline import IMPLEMENTATIONS, reference_partitioner

#: Incremental repair may be this much worse than a full re-partition
#: (measured headroom is ~1.06x on this harness; the pin catches drift
#: without flaking on strategy tweaks).
IMBALANCE_PIN = 1.5

NUM_MACHINES = 4


@pytest.fixture(scope="module")
def base_graph():
    return generate_power_law_graph(num_vertices=600, alpha=2.1, seed=11)


@pytest.fixture(scope="module")
def churn_stream(base_graph):
    return generate_stream(
        base_graph, pattern="churn", num_batches=4, ops_per_batch=10, seed=3
    )


def strategy_instances(implementation="vectorized", seed=5):
    """The five named strategies plus a deliberately order-sensitive
    small-chunk Oblivious (the default chunk covers small graphs whole,
    which would hide history effects from the differential check).
    ``"scalar"`` swaps Ginger for its reference loops."""
    make = make_partitioner
    if implementation == "scalar":
        make = reference_partitioner
    instances = [make(name, seed=seed) for name in CASE1_PARTITIONERS]
    instances.append(ObliviousPartitioner(seed=seed, chunk_size=64))
    return instances


def continuous_assignments(partitioner, graph, stream, halo=1):
    """One continuous incremental run; assignment bytes after each batch."""
    inc = IncrementalPartitioner(partitioner, halo=halo)
    inc.start(graph, NUM_MACHINES)
    out = []
    current, live = graph, None
    for batch in stream.batches:
        delta = apply_batch(current, batch, live=live)
        update = inc.apply(delta)
        out.append(update.result.assignment.tobytes())
        current, live = delta.graph, delta.live
    return out


class TestReplayDeterminism:
    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_replay_from_scratch_is_byte_identical(
        self, base_graph, churn_stream, implementation
    ):
        for strategy in strategy_instances(implementation):
            continuous = continuous_assignments(
                strategy, base_graph, churn_stream
            )
            for upto in range(1, churn_stream.num_batches + 1):
                prefix = type(churn_stream)(
                    batches=churn_stream.batches[:upto]
                )
                replayed = continuous_assignments(strategy, base_graph, prefix)
                assert replayed[-1] == continuous[upto - 1], (
                    f"{strategy.name}: batch {upto - 1} diverged on "
                    f"replay ({implementation})"
                )

    def test_oracle_ginger_agrees(self, base_graph, churn_stream):
        """Every repaired batch places edges as the reference Ginger does."""
        assert continuous_assignments(
            make_partitioner("ginger", seed=5), base_graph, churn_stream
        ) == continuous_assignments(
            reference_partitioner("ginger", seed=5), base_graph, churn_stream
        )


class TestImbalancePin:
    @pytest.mark.parametrize("algorithm", CASE1_PARTITIONERS)
    def test_incremental_within_pinned_factor_of_full(
        self, base_graph, churn_stream, algorithm
    ):
        inc = IncrementalPartitioner(make_partitioner(algorithm, seed=5), halo=1)
        inc.start(base_graph, NUM_MACHINES)
        full = make_partitioner(algorithm, seed=5)
        current, live = base_graph, None
        for batch in churn_stream.batches:
            delta = apply_batch(current, batch, live=live)
            update = inc.apply(delta)
            full_result = full.partition(delta.graph, NUM_MACHINES)
            assert update.imbalance <= IMBALANCE_PIN * weighted_imbalance(
                full_result
            ), f"{algorithm}: incremental imbalance drifted past the pin"
            current, live = delta.graph, delta.live


class TestStreamingTraceIdentity:
    @pytest.mark.parametrize("app_name", DEFAULT_APPS)
    @pytest.mark.parametrize("algorithm", CASE1_PARTITIONERS)
    def test_two_runs_byte_identical(
        self, base_graph, churn_stream, app_name, algorithm
    ):
        # The first run starts from cold caches; the second finds them warm.
        cluster = case1_cluster()

        def one_run():
            system = StreamingSystem(cluster, halo=1)
            return system.run(
                make_app(app_name),
                base_graph,
                churn_stream,
                make_partitioner(algorithm, seed=5),
            ).trace_json()

        assert one_run() == one_run()


class TestIncrementalAccounting:
    def test_carried_plus_reassigned_covers_every_edge(
        self, base_graph, churn_stream
    ):
        inc = IncrementalPartitioner(make_partitioner("hybrid", seed=5), halo=1)
        inc.start(base_graph, NUM_MACHINES)
        current, live = base_graph, None
        for batch in churn_stream.batches:
            delta = apply_batch(current, batch, live=live)
            update = inc.apply(delta)
            assert (
                update.carried_edges + update.reassigned_edges
                == delta.graph.num_edges
            )
            assert update.moved_edges <= update.reassigned_edges
            current, live = delta.graph, delta.live

    def test_halo_zero_reassigns_fewer_edges(self, base_graph, churn_stream):
        totals = {}
        for halo in (0, 2):
            inc = IncrementalPartitioner(
                make_partitioner("hybrid", seed=5), halo=halo
            )
            inc.start(base_graph, NUM_MACHINES)
            total = 0
            current, live = base_graph, None
            for batch in churn_stream.batches:
                delta = apply_batch(current, batch, live=live)
                total += inc.apply(delta).reassigned_edges
                current, live = delta.graph, delta.live
            totals[halo] = total
        assert totals[0] < totals[2]

    def test_carried_edges_keep_their_machine(self, base_graph, churn_stream):
        # halo=0: the affected region is exactly the touched set, so the
        # carried mask is reconstructible here without re-running the BFS.
        inc = IncrementalPartitioner(make_partitioner("ginger", seed=5), halo=0)
        prev = inc.start(base_graph, NUM_MACHINES)
        delta = apply_batch(base_graph, churn_stream.batches[0])
        update = inc.apply(delta)
        src, dst = delta.graph.edges()
        touched = np.zeros(delta.graph.num_vertices, dtype=bool)
        touched[list(delta.touched)] = True
        carried = (
            (delta.edge_origin >= 0) & ~touched[src] & ~touched[dst]
        )
        origin = delta.edge_origin[carried]
        np.testing.assert_array_equal(
            update.result.assignment[carried], prev.assignment[origin]
        )
