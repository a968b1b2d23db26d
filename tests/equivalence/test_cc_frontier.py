"""Connected Components: one frontier log per graph, accounted per partition.

``SyncEngine.run`` computes a ``min`` program's values, active sets and
applied sets once per graph (they do not depend on the partition, as
``min`` is exact) and then accounts each partition from that log
(DESIGN.md §11).  This module pins that path two ways:

* a hypothesis differential against the per-machine reference loop
  (``tests/oracle/engine.py::reference_sync_run``) over random graphs and
  partitions, including isolated vertices, one machine, and a
  ``max_supersteps`` cap with ``strict`` on and off;
* the observed span and metric stream of a CC run, against a fixture
  recorded from the full per-partition GAS engine this path replaced.

Regenerate the fixture only if the span contract itself changes:
``PYTHONPATH=src python -m tests.equivalence.test_cc_frontier``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.connected_components import ConnectedComponents
from repro.engine.distributed_graph import DistributedGraph
from repro.errors import ConvergenceError
from repro.graph.digraph import DiGraph
from repro.kernels.cache import clear_all_caches
from repro.obs import Observer, enabled
from repro.partition import make_partitioner
from repro.partition.base import PartitionResult
from repro.testing import golden_graph
from tests.oracle.engine import reference_sync_run

FIXTURE = Path(__file__).with_name("cc_spans.json")

#: name -> (machines, max_supersteps or None, strict)
SCENARIOS = {
    "converged": (4, None, False),
    "single_machine": (1, None, False),
    "capped": (3, 2, False),
    "capped_strict": (3, 2, True),
}


def _cc(max_supersteps, strict) -> ConnectedComponents:
    app = ConnectedComponents()
    if max_supersteps is not None:
        app.max_supersteps = max_supersteps
    app.strict = strict
    return app


def _observed_run(graph: DiGraph, name: str):
    machines, cap, strict = SCENARIOS[name]
    weights = np.array((1.0, 2.0, 1.5, 0.5)[:machines])
    partition = make_partitioner("hybrid", seed=7).partition(
        graph, machines, weights
    )
    observer = Observer()
    with enabled(observer):
        try:
            trace = _cc(cap, strict).execute(DistributedGraph(partition))
            outcome = trace.canonical_json()
        except ConvergenceError as exc:
            outcome = f"ConvergenceError: {exc}"
    return {
        "outcome": outcome,
        "spans": [s.to_jsonable() for s in observer.spans],
        "metrics": observer.metrics.to_jsonable(),
    }


def _record(graph: DiGraph):
    return {name: _observed_run(graph, name) for name in SCENARIOS}


# ---------------------------------------------------------------------- #
# Span stream vs the recorded per-partition engine
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_observed_cc_matches_recorded_spans(name, expected):
    """Spans, metrics and trace bytes equal the recorded fixture, both on
    the run that builds the frontier log and on one that reuses it."""
    clear_all_caches()
    graph = golden_graph()
    first = json.loads(json.dumps(_observed_run(graph, name)))
    again = json.loads(json.dumps(_observed_run(graph, name)))
    assert first == expected[name]
    assert again == expected[name]


# ---------------------------------------------------------------------- #
# Hypothesis differential vs the per-machine reference loop
# ---------------------------------------------------------------------- #


@st.composite
def cc_cases(draw):
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 4))
    num_edges = draw(st.integers(0, 48))
    src = draw(st.lists(st.integers(0, n - 1), min_size=num_edges,
                        max_size=num_edges))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=num_edges,
                        max_size=num_edges))
    assignment = draw(st.lists(st.integers(0, m - 1), min_size=num_edges,
                               max_size=num_edges))
    cap = draw(st.one_of(st.none(), st.integers(1, 4)))
    strict = draw(st.booleans())
    graph = DiGraph(
        n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    )
    partition = PartitionResult(
        graph=graph,
        assignment=np.array(assignment, dtype=np.int32),
        num_machines=m,
        algorithm="random",
        weights=np.ones(m),
    )
    return partition, cap, strict


def _outcome(run):
    try:
        return run().canonical_json()
    except ConvergenceError as exc:
        return f"ConvergenceError: {exc}"


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cc_cases())
def test_frontier_accounting_matches_reference(case):
    """Every partition of a graph gets the reference loop's trace bytes,
    whether the frontier log is built by this call or reused."""
    partition, cap, strict = case
    app = _cc(cap, strict)
    expected_trace = _outcome(
        lambda: reference_sync_run(app, DistributedGraph(partition))
    )
    if strict and not expected_trace.startswith("ConvergenceError"):
        trace = json.loads(expected_trace)
        if not trace["result"]["converged"]:
            expected_trace = (
                f"ConvergenceError: {app.name} did not converge within "
                f"{app.max_supersteps} supersteps"
            )
    for _ in range(2):  # build the log, then reuse it
        ours = _outcome(lambda: app.execute(DistributedGraph(partition)))
        assert ours == expected_trace


def test_strict_raises_on_every_call():
    """A memoised non-converged log still raises, call after call."""
    graph = DiGraph.from_edges([(k, k + 1) for k in range(9)], num_vertices=10)
    partition = make_partitioner("random_hash", seed=1).partition(graph, 2)
    app = _cc(2, True)
    for _ in range(3):
        with pytest.raises(ConvergenceError):
            app.execute(DistributedGraph(partition))


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    clear_all_caches()
    FIXTURE.write_text(
        json.dumps(_record(golden_graph()), indent=1, sort_keys=True) + "\n"
    )
