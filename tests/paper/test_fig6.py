"""Fig. 6 — power-law degree distribution (Friendster-like).

Paper shape: the degree distribution is a straight line in log-log space
whose slope is governed by alpha.  The distribution is regenerated for a
Friendster-like graph and checked for linearity (R²) and the recovered
exponent.
"""

import pytest

from repro.experiments.fig6 import run_fig6
from repro.utils.tables import format_table

from tests.paper import emit


@pytest.fixture(scope="module")
def fig6():
    result = run_fig6()
    emit(
        format_table(
            headers=("degree", "P(degree)"),
            rows=result.rows(),
            title=(
                "Fig. 6: Friendster-like degree distribution "
                f"(alpha requested {result.alpha_requested}, "
                f"CCDF fit {result.alpha_fit_ccdf:.2f}, R^2 {result.r_squared:.3f})"
            ),
            float_fmt=".2e",
        )
    )
    return result


def test_distribution_is_a_clean_power_law(fig6):
    assert fig6.r_squared > 0.97, "distribution is not a clean power law"


def test_ccdf_fit_recovers_alpha(fig6):
    assert abs(fig6.alpha_fit_ccdf - fig6.alpha_requested) < 0.2


def test_moment_fit_recovers_alpha(fig6):
    assert abs(fig6.alpha_fit_moment - fig6.alpha_requested) < 0.1
