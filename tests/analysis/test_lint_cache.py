"""The whole-program lint's summary cache over ``src/repro``, and the
per-rule finding counts over the known-bad fixtures.

A cold run (empty summary cache: parse, extract and rules for every
module) is timed against a warm run (every file unchanged: content-sha
hits, only the whole-program join re-runs) with the full rule set, over
``REPS`` repetitions.  The cache must never change an answer, the warm
run must miss nothing, the tree must lint clean, and the warm median
must be at least ``MIN_SPEEDUP`` times faster than the cold median
(recorded at 16.9x).  Only the ratio is gated, so a slow machine does
not fail it; a cache that stops skipping the expensive phase does.
"""

import os
import statistics
import time

import pytest

from repro.analysis import (
    SummaryCache,
    all_rules,
    lint_paths,
    lint_source,
    ruleset_signature,
)

SRC_REPRO = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

REPS = 3
MIN_SPEEDUP = 2.0

#: (fixture file, rule to run, module override so scoped rules apply).
FIXTURE_MATRIX = [
    ("det001_bad.py", "DET001", None),
    ("det002_bad.py", "DET002", None),
    ("det003_bad.py", "DET003", "repro.partition.fixture"),
    ("det004_bad.py", "DET004", None),
    ("det005_bad.py", "DET005", None),
    ("det006_bad.py", "DET006", None),
    ("obs001_bad_obs.py", "OBS001", "repro.obs.fixture"),
    ("obs001_bad_lib.py", "OBS001", "repro.partition.fixture"),
    ("err001_bad.py", "ERR001", None),
    ("err002_bad.py", "ERR002", "repro.service.fixture"),
    ("api001_bad.py", "API001", "repro.partition.fixture"),
    ("store001_bad.py", "STORE001", "repro.service.fixture"),
    ("store002_bad.py", "STORE002", "repro.store.fixture"),
    ("fed001_bad.py", "FED001", "repro.federation.fixture"),
]

#: Findings per rule summed over ``FIXTURE_MATRIX``: a drifting count is
#: a silent change of rule semantics.
FIXTURE_FINDINGS = {
    "API001": 2,
    "DET001": 7,
    "DET002": 7,
    "DET003": 4,
    "DET004": 2,
    "DET005": 2,
    "DET006": 2,
    "ERR001": 3,
    "ERR002": 3,
    "FED001": 2,
    "OBS001": 6,
    "STORE001": 2,
    "STORE002": 2,
}


def test_fixture_findings_per_rule_match_recorded():
    counts = {}
    for name, rule_id, module in FIXTURE_MATRIX:
        path = os.path.join(FIXTURES, name)
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        report = lint_source(
            source, path=path, module=module, rules=all_rules(only=[rule_id])
        )
        counts[rule_id] = counts.get(rule_id, 0) + len(report.findings)
    assert counts == FIXTURE_FINDINGS


@pytest.fixture(scope="module")
def tree_runs(tmp_path_factory):
    """``REPS`` (cold, warm) run pairs over src/repro: (seconds, report)."""
    rules = all_rules()
    signature = ruleset_signature(rules)
    runs = []
    for _ in range(REPS):
        cache_path = str(tmp_path_factory.mktemp("lint") / "cache.json")
        pair = []
        for _phase in ("cold", "warm"):
            started = time.perf_counter()
            report = lint_paths(
                [SRC_REPRO], rules=rules, cache=SummaryCache(cache_path, signature)
            )
            pair.append((time.perf_counter() - started, report))
        runs.append(pair)
    return runs


def test_tree_lints_clean(tree_runs):
    (_, cold), _ = tree_runs[-1]
    assert len(cold.findings) == 0


def test_warm_run_agrees_with_cold(tree_runs):
    (_, cold), (_, warm) = tree_runs[-1]
    assert warm.per_rule_counts(include_hidden=True) == cold.per_rule_counts(
        include_hidden=True
    )


def test_warm_run_misses_nothing(tree_runs):
    _, (_, warm) = tree_runs[-1]
    assert warm.cache_misses == 0


def test_warm_run_is_at_least_2x_faster(tree_runs):
    cold = statistics.median(c for (c, _), _ in tree_runs)
    warm = statistics.median(w for _, (w, _) in tree_runs)
    assert round(cold / warm, 2) >= MIN_SPEEDUP
