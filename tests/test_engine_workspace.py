"""The engine's per-run workspace against the per-machine reference loop.

``SuperstepLoop`` refills one ``acc`` and one ``has_message`` array every
superstep and gathers into edge-length buffers that live for the whole
run.  ``apply`` may return either accumulator as its new state, so the
loop must copy it before the next refill; and ``applied`` must stay a
fresh array, because ``SyncEngine`` keeps the previous one.  Each program
here exercises one of those rules, and its trace must equal
``tests/oracle/engine.py::reference_sync_run`` byte for byte.  The
partial-frontier gather on one machine and on four is checked in
``tests/equivalence/test_backend_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.connected_components import ConnectedComponents
from repro.apps.pagerank import PageRank
from repro.engine.distributed_graph import DistributedGraph
from repro.partition import make_partitioner
from repro.powerlaw.generator import generate_power_law_graph
from tests.equivalence.test_backend_equivalence import (
    WEIGHTS,
    _edge_case_graphs,
    _one_machine_partition,
)
from tests.oracle.engine import reference_sync_run


class _AccAsValues(PageRank):
    """A sum program whose new values are ``acc`` itself, updated in place."""

    def apply(self, graph, values, acc, has_message):
        acc *= self.damping
        acc += 1.0 - self.damping
        active = np.abs(acc - values) > self.tolerance
        return acc, active


class _MessagedStayActive(PageRank):
    """A sum program whose next active set is ``has_message`` itself."""

    def initial_active(self, graph):
        return np.arange(graph.num_vertices) % 3 == 0

    def apply(self, graph, values, acc, has_message):
        return (1.0 - self.damping) + self.damping * acc, has_message


class _MinIntoAcc(ConnectedComponents):
    """A min program whose new values are ``acc`` itself."""

    def apply(self, graph, values, acc, has_message):
        np.minimum(values, acc, out=acc)
        return acc, acc < values


class _MinMessagedStayActive(ConnectedComponents):
    """A min program whose next active set is ``has_message`` itself."""

    # Vertices keep receiving messages, so only the cap stops it.
    max_supersteps = 12

    def apply(self, graph, values, acc, has_message):
        return np.where(has_message, np.minimum(values, acc), values), has_message


GRAPHS = {
    "powerlaw": generate_power_law_graph(num_vertices=300, alpha=2.0, seed=11),
    **_edge_case_graphs(),
}


def _layout(graph, machines):
    if machines == 1:
        part = _one_machine_partition(graph)
    else:
        part = make_partitioner("hybrid", seed=3).partition(
            graph, machines, np.array(WEIGHTS)
        )
    return DistributedGraph(part)


@pytest.mark.parametrize("machines", [1, 4])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize(
    "program",
    [
        _AccAsValues(max_supersteps=12),
        _MessagedStayActive(max_supersteps=12),
        _MinIntoAcc(),
        _MinMessagedStayActive(),
    ],
    ids=lambda p: type(p).__name__,
)
def test_apply_may_return_the_workspace(program, graph_name, machines):
    graph = GRAPHS[graph_name]
    ours = program.execute(_layout(graph, machines))
    ref = reference_sync_run(program, _layout(graph, machines))
    assert ours.canonical_json() == ref.canonical_json()
