"""Fast smoke tests of the experiment harness at tiny scale.

``tests/paper/`` validates the paper-shape claims at evaluation scale; these
only assert that every experiment runs end to end and returns structurally
sound results, so a refactor cannot silently break the harness.
"""

import numpy as np
import pytest

from repro.experiments import (
    run_case2,
    run_fig2,
    run_fig6,
    run_fig8a,
    run_fig8b,
    run_fig9,
    run_fig11,
    run_table1,
    run_table2,
)

TINY = 0.0015


def test_table1_matches_paper():
    result = run_table1()
    assert result.matches_paper()
    assert len(result.rows()) == 8


def test_table2_rows_cover_datasets():
    result = run_table2(scale=TINY)
    assert len(result.rows_list) == 7
    for row in result.rows_list:
        assert row.scaled_vertices > 0 and row.scaled_edges > 0


def test_fig2_structure():
    result = run_fig2(scale=TINY, apps=("pagerank", "triangle_count"))
    assert result.machines == ("c4.xlarge", "c4.2xlarge", "c4.4xlarge", "c4.8xlarge")
    assert result.prior_estimate[-1] == pytest.approx(17.0)
    for series in result.real_speedups.values():
        assert series[0] == pytest.approx(1.0)

def test_fig6_fit():
    result = run_fig6(num_vertices=5000)
    assert result.r_squared > 0.9
    assert len(result.degrees) == len(result.probabilities)
    assert result.rows(max_points=5)


def test_fig8a_errors_ordered():
    result = run_fig8a(scale=TINY, apps=("pagerank",))
    assert result.mean_proxy_error_pct < result.mean_prior_error_pct
    assert len(result.rows()) == 4


def test_fig8b_baseline_is_m4():
    result = run_fig8b(scale=TINY, apps=("pagerank",))
    app = result.apps[0]
    assert app.machines[0] == "m4.2xlarge"
    assert app.real[0] == 1.0


def test_fig9_rows_complete():
    result = run_fig9(
        scale=TINY,
        apps=("connected_components",),
        graphs=("amazon",),
        algorithms=("random_hash", "hybrid"),
    )
    assert len(result.rows_list) == 2
    for row in result.rows_list:
        assert row.prior_runtime > 0 and row.ccr_runtime > 0
    assert set(result.algorithm_speedups()) == {"random_hash", "hybrid"}


def test_fig10_case2_structure():
    result = run_case2(
        scale=TINY,
        apps=("pagerank",),
        graphs=("wiki",),
        algorithms=("hybrid",),
    )
    app = result.apps[0]
    assert set(app.runtime) == {"default", "prior", "ccr"}
    assert app.speedup("prior") > 0.5
    # Both heterogeneity-aware systems beat the default even at tiny scale.
    assert app.speedup("ccr") > 1.0


def test_fig11_points_per_machine_app():
    result = run_fig11(scale=TINY, apps=("pagerank",), machines=("c4.xlarge", "c4.2xlarge"))
    assert len(result.points) == 2
    base = next(p for p in result.points if p.machine == "c4.xlarge")
    assert base.speedup == pytest.approx(1.0)
