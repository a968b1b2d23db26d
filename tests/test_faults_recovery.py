"""The one recovery model: its bill, its retry budget, its conservation law.

* Conservation: under crash-only faults the static pricing walk takes
  exactly the undisturbed runtime plus the recovery bill's total, for any
  crash placement, checkpoint interval and retry budget; an over-budget
  schedule raises instead.
* :class:`~repro.faults.checkpoint.RetryBudget` draws the same pauses, in
  the same order, as the three hand-written retry loops it replaced: the
  static walk's bounded jitter, the service's full jitter and the summary
  store's ``uniform(0, base * 2**n)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.pagerank import PageRank
from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.engine.report import simulate_execution
from repro.engine.runtime import execute_partition
from repro.engine.resilient import simulate_resilient_execution
from repro.errors import RecoveryError
from repro.faults.checkpoint import (
    CheckpointPolicy,
    RecoveryBill,
    RetryBudget,
    RetryPolicy,
)
from repro.faults.schedule import CrashFault, FaultSchedule
from repro.partition import make_partitioner
from repro.powerlaw.generator import generate_power_law_graph
from repro.utils.rng import make_rng

MACHINES = 3


@pytest.fixture(scope="module")
def cluster():
    return Cluster(
        [get_machine("m4.2xlarge"), get_machine("c4.2xlarge"),
         get_machine("c4.xlarge")],
        perf=PerformanceModel(model_scale=0.01),
    )


@pytest.fixture(scope="module")
def trace():
    graph = generate_power_law_graph(num_vertices=400, alpha=2.1, seed=4)
    partition = make_partitioner("hybrid").partition(graph, MACHINES)
    _, captured = execute_partition(PageRank(max_supersteps=12), partition)
    return captured


crash_lists = st.lists(
    st.tuples(
        st.integers(0, 11),
        st.integers(0, MACHINES - 1),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=4,
)


class TestStaticConservation:
    @settings(max_examples=80, deadline=None)
    @given(
        crashes=crash_lists,
        interval=st.integers(0, 6),
        max_retries=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_runtime_is_undisturbed_plus_bill(
        self, cluster, trace, crashes, interval, max_retries, seed
    ):
        schedule = FaultSchedule(
            crashes=tuple(
                CrashFault(superstep=min(s, trace.num_supersteps - 1),
                           machine=m, repeats=r)
                for s, m, r in crashes
            ),
            seed=seed,
        )
        fires = {}
        for c in schedule.crashes:
            key = (c.superstep, c.machine)
            fires[key] = fires.get(key, 0) + c.repeats
        kwargs = dict(
            schedule=schedule,
            checkpoint=CheckpointPolicy(interval=interval),
            retry=RetryPolicy(max_retries=max_retries),
        )
        if max(fires.values()) > max_retries:
            with pytest.raises(RecoveryError, match="retry budget"):
                simulate_resilient_execution(trace, cluster, **kwargs)
            return
        report = simulate_resilient_execution(trace, cluster, **kwargs)
        bill = report.recovery
        undisturbed = simulate_execution(trace, cluster).runtime_seconds
        assert report.runtime_seconds == pytest.approx(
            undisturbed + bill.overhead_seconds, rel=1e-12
        )
        assert bill.crashes == sum(fires.values())
        assert bill.lost_seconds > 0.0
        assert bill.migration_seconds == 0.0


class TestRecoveryBill:
    def test_total_sums_every_cost_once(self):
        bill = RecoveryBill(
            lost_seconds=1.0, replay_seconds=2.0, restart_seconds=4.0,
            backoff_seconds=8.0, checkpoint_seconds=16.0,
            migration_seconds=32.0,
        )
        assert bill.overhead_seconds == 63.0

    def test_stream_json_keys(self):
        doc = RecoveryBill(unit="epoch", resumed_from_batch=2).to_jsonable()
        assert list(doc) == [
            "crashes", "replayed_epochs", "checkpoints_taken",
            "lost_seconds", "replay_seconds", "restart_seconds",
            "backoff_seconds", "checkpoint_seconds", "overhead_seconds",
            "resumed_from_batch",
        ]
        assert doc["resumed_from_batch"] == 2

    def test_static_json_names_supersteps_and_migration(self):
        doc = RecoveryBill(migration_seconds=0.25).to_jsonable()
        assert doc["replayed_supersteps"] == 0
        assert doc["migration_seconds"] == 0.25
        assert doc["overhead_seconds"] == 0.25


# ---------------------------------------------------------------------- #
# RetryBudget against the retry loops it replaced
# ---------------------------------------------------------------------- #


def _walk_reference(sites, max_retries, base, factor, jitter, seed):
    """The static walk's loop: per-site attempts, bounded jitter."""
    rng = make_rng(seed)
    attempts = {}
    out = []
    for site in sites:
        attempts[site] = attempts.get(site, 0) + 1
        n = attempts[site]
        if n > max_retries:
            out.append((n, None))
            break
        pause = base * factor ** (n - 1)
        if jitter != 0.0:
            pause = pause * (1.0 + float(rng.uniform(0.0, jitter)))
        out.append((n, pause))
    return out


def _service_reference(max_attempts, base, factor, seed):
    """The service's attempt loop: full jitter, attempts 1..max."""
    rng = make_rng(seed)
    out = []
    for attempt in range(1, max_attempts + 1):
        if attempt == max_attempts:
            out.append((attempt, None))
            break
        out.append(
            (attempt, float(rng.uniform(0.0, base * factor ** (attempt - 1))))
        )
    return out


def _store_reference(retry_attempts, base, seed):
    """The summary store's write loop: uniform(0, base * 2**n)."""
    rng = make_rng(seed)
    out = []
    for attempt in range(retry_attempts + 1):
        if attempt == retry_attempts:
            out.append((attempt + 1, None))
            break
        out.append(
            (attempt + 1, float(rng.uniform(0.0, base * (2.0 ** attempt))))
        )
    return out


def _drive(budget, sites):
    out = []
    for site in sites:
        n = budget.restart(site)
        if budget.exhausted(n):
            out.append((n, None))
            break
        out.append((n, budget.pause(n)))
    return out


bases = st.floats(0.0, 5.0, allow_nan=False)
factors = st.floats(1.0, 4.0, allow_nan=False)
seeds = st.integers(0, 2**32 - 1)


class TestRetryBudgetDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        sites=st.lists(st.integers(0, 3), min_size=1, max_size=12),
        max_retries=st.integers(0, 4),
        base=bases,
        factor=factors,
        jitter=st.floats(0.0, 1.0, allow_nan=False),
        seed=seeds,
    )
    def test_bounded_jitter_matches_the_walk(
        self, sites, max_retries, base, factor, jitter, seed
    ):
        policy = RetryPolicy(
            max_retries=max_retries, backoff_base_s=base,
            backoff_factor=factor, jitter=jitter,
        )
        assert _drive(RetryBudget(policy, make_rng(seed)), sites) == (
            _walk_reference(sites, max_retries, base, factor, jitter, seed)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        max_attempts=st.integers(1, 6), base=bases, factor=factors,
        seed=seeds,
    )
    def test_full_jitter_matches_the_service(
        self, max_attempts, base, factor, seed
    ):
        policy = RetryPolicy(
            max_retries=max_attempts - 1, backoff_base_s=base,
            backoff_factor=factor, full_jitter=True,
        )
        budget = RetryBudget(policy, make_rng(seed))
        assert _drive(budget, [None] * max_attempts) == _service_reference(
            max_attempts, base, factor, seed
        )

    @settings(max_examples=200, deadline=None)
    @given(retry_attempts=st.integers(0, 6), base=bases, seed=seeds)
    def test_store_draw_is_full_jitter(self, retry_attempts, base, seed):
        policy = RetryPolicy(
            max_retries=retry_attempts, backoff_base_s=base, full_jitter=True
        )
        budget = RetryBudget(policy, make_rng(seed))
        assert _drive(budget, [None] * (retry_attempts + 1)) == (
            _store_reference(retry_attempts, base, seed)
        )

    def test_sites_count_separately(self):
        budget = RetryBudget(RetryPolicy(max_retries=1), np.random.default_rng(0))
        assert [budget.restart(s) for s in ("a", "b", "a")] == [1, 1, 2]
        assert budget.exhausted(2) and not budget.exhausted(1)
