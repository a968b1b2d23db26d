"""Fig. 2 — speedup estimated by prior work vs. real speedup.

Paper shape: the thread-count estimate (1, 3, 7, 17 across the c4 ladder)
diverges far above every application's real scaling; applications diverge
from each other, with PageRank saturating on the largest machines.
"""

import pytest

from repro.experiments.fig2 import run_fig2
from repro.utils.tables import format_table

from tests.paper import PAPER_SCALE, emit


@pytest.fixture(scope="module")
def fig2():
    result = run_fig2(scale=PAPER_SCALE)
    emit(
        format_table(
            headers=result.headers(),
            rows=result.rows(),
            title="Fig. 2: prior-work estimate vs real application scaling (c4 family)",
        )
    )
    return result


def test_thread_estimate_overshoots_every_application(fig2):
    prior_top = fig2.prior_estimate[-1]
    for app, series in fig2.real_speedups.items():
        assert prior_top > 1.8 * series[-1], (app, series)


def test_real_scaling_is_monotone(fig2):
    # Bigger machines are never slower.
    for app, series in fig2.real_speedups.items():
        assert all(b >= a * 0.98 for a, b in zip(series, series[1:])), (app, series)


def test_pagerank_saturates_on_the_largest_machines(fig2):
    # Fig. 2's red line flattens between the last two machines.
    assert "pagerank" in fig2.saturating_apps(threshold=1.35)
