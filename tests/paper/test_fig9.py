"""Fig. 9 — Case 1: CCR-guided vs prior work on the EC2 cluster.

Paper shape: on 2× m4.2xlarge + 2× c4.2xlarge (identical thread counts, so
prior work partitions uniformly) the CCR-guided system wins on every
application; Coloring benefits least (asynchronous engine), and the
mixed-cut algorithms (Hybrid/Ginger) and Oblivious do best.  Paper
magnitudes: ~1.16× average / 1.45× max; this simulation's machine gap
yields a smaller but same-shaped ~1.05–1.09× average (see EXPERIMENTS.md).
"""

import pytest

from repro.experiments.fig9 import run_fig9
from repro.utils.tables import format_table

from tests.paper import PAPER_SCALE, emit


@pytest.fixture(scope="module")
def fig9():
    result = run_fig9(scale=PAPER_SCALE)
    emit(
        format_table(
            headers=("app", "graph", "algorithm", "prior (s)", "ccr (s)", "speedup"),
            rows=result.rows(),
            title=(
                "Fig. 9: Case 1 runtimes, prior work vs CCR-guided — "
                f"mean {result.mean_speedup:.3f}x, max {result.max_speedup:.3f}x"
            ),
            float_fmt=".5f",
        )
    )
    return result


def test_ccr_guided_wins_on_average(fig9):
    assert fig9.mean_speedup > 1.02


def test_ccr_guided_wins_on_every_application(fig9):
    apps = fig9.app_speedups()
    assert all(s > 0.99 for s in apps.values()), apps


def test_coloring_benefits_least(fig9):
    # Asynchronous execution, as in the paper.
    apps = fig9.app_speedups()
    assert apps["coloring"] == min(apps.values()), apps


def test_max_speedup_well_above_the_mean(fig9):
    # The amazon/CC/hybrid-style outliers of the paper.
    assert fig9.max_speedup > fig9.mean_speedup + 0.05
