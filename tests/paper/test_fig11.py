"""Fig. 11 — cost and performance Pareto space of EC2 machines.

Paper shape: the three 2xlarge machines (different categories) cluster
together around ~2× speedup at a small fraction of the biggest machine's
cost; within the compute-optimised family the 8xlarge is the most
expensive machine per graph task; the mid sizes (2xlarge/4xlarge) are the
reasonable candidates.
"""

import pytest

from repro.experiments.fig11 import run_fig11
from repro.utils.tables import format_table

from tests.paper import PAPER_SCALE, emit


@pytest.fixture(scope="module")
def fig11():
    result = run_fig11(scale=PAPER_SCALE)
    emit(
        format_table(
            headers=("app", "machine", "speedup", "cost per task ($)", "relative cost"),
            rows=result.rows(),
            title="Fig. 11: cost/performance Pareto of EC2 machines (proxy-profiled)",
            float_fmt=".3e",
        )
    )
    emit(
        format_table(
            headers=("machine", "mean speedup", "mean cost per task ($)"),
            rows=[(m, s, c) for m, (s, c) in sorted(result.mean_by_machine().items())],
            title="Fig. 11 summary (mean over applications)",
            float_fmt=".3e",
        )
    )
    return result


def test_2xlarge_machines_cluster_around_2x(fig11):
    means = fig11.mean_by_machine()
    for m in ("c4.2xlarge", "m4.2xlarge", "r3.2xlarge"):
        assert 1.6 < means[m][0] < 2.8, (m, means[m])


def test_c4_8xlarge_costs_the_most_per_task(fig11):
    c4 = {m: c for m, (s, c) in fig11.mean_by_machine().items() if m.startswith("c4.")}
    assert max(c4, key=c4.get) == "c4.8xlarge", c4


def test_pareto_front_holds_a_mid_size(fig11):
    # The mid sizes the paper recommends.
    front = {p.machine for p in fig11.pareto()}
    assert "c4.2xlarge" in front or "c4.4xlarge" in front, front
