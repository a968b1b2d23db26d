"""CLI contract for ``repro lint``: exit codes, JSON schema, baseline
workflow, stats output, and the self-lint acceptance gate."""

import json
import os

from repro.cli import main

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
BAD_FIXTURE = os.path.join(FIXTURES, "det001_bad.py")


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main(["lint", str(target)]) == 0

    def test_findings_exit_one(self, capsys):
        assert main(["lint", BAD_FIXTURE]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "by rule:" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "/no/such/lint/path"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "/no/such/lint/path" in err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main(["lint", str(target), "--rules", "NOPE999"]) == 2

    def test_write_baseline_requires_baseline_path(self, capsys):
        assert main(["lint", BAD_FIXTURE, "--write-baseline"]) == 2


class TestJsonOutput:
    def test_schema(self, capsys):
        main(["lint", BAD_FIXTURE, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["format_version"] == 1
        assert doc["tool"] == "repro-lint"
        assert set(doc["summary"]) == {
            "findings",
            "suppressed",
            "baselined",
            "stale_baseline",
            "files_scanned",
            "per_rule",
        }
        assert doc["summary"]["files_scanned"] == 1
        assert doc["summary"]["findings"] > 0
        first = doc["findings"][0]
        assert set(first) == {
            "file",
            "line",
            "col",
            "rule",
            "severity",
            "message",
            "trace",
        }
        ids = {r["id"] for r in doc["rules"]}
        assert {
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "DET005",
            "DET006",
            "OBS001",
            "ERR001",
            "ERR002",
            "API001",
            "STORE001",
            "STORE002",
            "FED001",
        } <= ids

    def test_rule_filter(self, capsys):
        main(["lint", BAD_FIXTURE, "--json", "--rules", "DET002"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["findings"] == 0
        assert [r["id"] for r in doc["rules"]] == ["DET002"]


class TestBaselineWorkflow:
    def test_write_then_pass(self, tmp_path, capsys):
        bpath = str(tmp_path / "baseline.json")
        assert main(
            ["lint", BAD_FIXTURE, "--baseline", bpath, "--write-baseline"]
        ) == 0
        assert "written" in capsys.readouterr().out
        assert main(["lint", BAD_FIXTURE, "--baseline", bpath]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_new_finding_still_fails(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import time\n\nx = time.time()\n")
        bpath = str(tmp_path / "baseline.json")
        assert main(
            ["lint", str(target), "--baseline", bpath, "--write-baseline"]
        ) == 0
        target.write_text(
            "import time\n\nx = time.time()\ny = time.monotonic()\n"
        )
        assert main(["lint", str(target), "--baseline", bpath]) == 1


class TestStaleBaseline:
    def test_stale_entries_reported_and_pruned(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("import time\n\nx = time.time()\n")
        bpath = str(tmp_path / "baseline.json")
        assert main(
            ["lint", str(target), "--baseline", bpath, "--write-baseline"]
        ) == 0
        capsys.readouterr()
        # Fix the finding: the baseline entry is now stale debt.
        target.write_text("x = 1\n")
        spath = str(tmp_path / "stats.json")
        assert main(
            ["lint", str(target), "--baseline", bpath, "--stats", spath]
        ) == 0
        out = capsys.readouterr().out
        assert "stale baseline entries: 1" in out
        with open(spath, "r", encoding="utf-8") as fh:
            assert json.load(fh)["stale_baseline"] == 1
        # Regeneration prunes it and says so.
        assert main(
            ["lint", str(target), "--baseline", bpath, "--write-baseline"]
        ) == 0
        assert "1 stale entry(ies) pruned" in capsys.readouterr().out
        with open(bpath, "r", encoding="utf-8") as fh:
            assert json.load(fh)["entries"] == []

    def test_stale_entries_appear_in_json_report(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("import time\n\nx = time.time()\n")
        bpath = str(tmp_path / "baseline.json")
        main(["lint", str(target), "--baseline", bpath, "--write-baseline"])
        capsys.readouterr()
        target.write_text("x = 1\n")
        main(["lint", str(target), "--baseline", bpath, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["stale_baseline"] == 1
        assert doc["stale_baseline"][0]["rule"] == "DET001"


class TestStats:
    def test_stats_file_schema(self, tmp_path, capsys):
        spath = str(tmp_path / "stats.json")
        main(["lint", BAD_FIXTURE, "--stats", spath])
        with open(spath, "r", encoding="utf-8") as fh:
            stats = json.load(fh)
        assert stats["files_scanned"] == 1
        assert stats["findings"] > 0
        assert stats["runtime_seconds"] >= 0
        assert "DET001" in stats["per_rule"]
        assert stats["stale_baseline"] == 0
        assert stats["ruleset"].startswith("v")


class TestSummaryCache:
    def test_warm_run_hits_and_agrees(self, tmp_path, capsys):
        cpath = str(tmp_path / "cache.json")
        s1 = str(tmp_path / "s1.json")
        s2 = str(tmp_path / "s2.json")
        assert main(
            ["lint", BAD_FIXTURE, "--cache", cpath, "--stats", s1]
        ) == 1
        capsys.readouterr()
        assert main(
            ["lint", BAD_FIXTURE, "--cache", cpath, "--stats", s2]
        ) == 1
        with open(s1, encoding="utf-8") as fh:
            cold_stats = json.load(fh)
        with open(s2, encoding="utf-8") as fh:
            warm_stats = json.load(fh)
        assert cold_stats["cache_hits"] == 0
        assert cold_stats["cache_misses"] == 1
        assert warm_stats["cache_hits"] == 1
        assert warm_stats["cache_misses"] == 0
        assert cold_stats["per_rule"] == warm_stats["per_rule"]

    def test_rule_filter_invalidates_cache(self, tmp_path, capsys):
        cpath = str(tmp_path / "cache.json")
        spath = str(tmp_path / "s.json")
        main(["lint", BAD_FIXTURE, "--cache", cpath])
        capsys.readouterr()
        main(
            [
                "lint",
                BAD_FIXTURE,
                "--cache",
                cpath,
                "--rules",
                "DET001",
                "--stats",
                spath,
            ]
        )
        with open(spath, encoding="utf-8") as fh:
            stats = json.load(fh)
        # Different rule set => different signature => cold run.
        assert stats["cache_hits"] == 0


class TestGraphArtifact:
    def test_graph_json_written(self, tmp_path, capsys):
        gdir = str(tmp_path / "graph")
        main(["lint", BAD_FIXTURE, "--graph", gdir])
        capsys.readouterr()
        with open(
            os.path.join(gdir, "lint-graph.json"), encoding="utf-8"
        ) as fh:
            doc = json.load(fh)
        assert doc["format_version"] == 1
        assert set(doc) == {
            "format_version",
            "ruleset",
            "call_graph",
            "taint_edges",
        }
        graph = doc["call_graph"]
        assert set(graph["counts"]) == {"nodes", "edges", "external"}
        assert isinstance(doc["taint_edges"], list)


class TestSelfLint:
    def test_src_repro_is_clean(self, capsys):
        """The acceptance gate: the merged tree lints clean."""
        assert main(["lint", SRC_REPRO]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_checked_in_baseline_is_empty(self):
        with open(
            os.path.join(REPO_ROOT, "lint-baseline.json"), encoding="utf-8"
        ) as fh:
            doc = json.load(fh)
        assert doc["format_version"] == 1
        assert doc["entries"] == []
