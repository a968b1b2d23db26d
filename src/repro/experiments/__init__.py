"""Experiment harness: one module per table/figure of the paper.

Each module exposes ``run_*`` functions returning structured results with
``rows()`` accessors; ``tests/paper/`` prints them in the paper's layout
and asserts their headline shapes.
See DESIGN.md section 4 for the experiment index and EXPERIMENTS.md for
recorded paper-vs-measured outcomes.
"""

from repro.experiments.common import (
    C4_FAMILY,
    CASE1_PARTITIONERS,
    DEFAULT_SCALE,
    REAL_GRAPHS,
    SAME_THREAD_CATEGORIES,
    TWO_MACHINE_PARTITIONERS,
    case1_cluster,
    case2_cluster,
    case3_cluster,
    make_perf,
)
from repro.experiments.table1 import run_table1, Table1Result
from repro.experiments.table2 import run_table2, Table2Result
from repro.experiments.fig2 import run_fig2, Fig2Result
from repro.experiments.fig6 import run_fig6, Fig6Result
from repro.experiments.fig8 import run_fig8a, run_fig8b, Fig8Result
from repro.experiments.fig9 import run_fig9, Fig9Result
from repro.experiments.fig10 import run_case2, run_case3, run_fig10, Fig10Result
from repro.experiments.fig11 import run_fig11, Fig11Result

__all__ = [
    "C4_FAMILY",
    "CASE1_PARTITIONERS",
    "DEFAULT_SCALE",
    "REAL_GRAPHS",
    "SAME_THREAD_CATEGORIES",
    "TWO_MACHINE_PARTITIONERS",
    "case1_cluster",
    "case2_cluster",
    "case3_cluster",
    "make_perf",
    "run_table1",
    "Table1Result",
    "run_table2",
    "Table2Result",
    "run_fig2",
    "Fig2Result",
    "run_fig6",
    "Fig6Result",
    "run_fig8a",
    "run_fig8b",
    "Fig8Result",
    "run_fig9",
    "Fig9Result",
    "run_case2",
    "run_case3",
    "run_fig10",
    "Fig10Result",
    "run_fig11",
    "Fig11Result",
]
