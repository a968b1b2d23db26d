"""Unit tests for the command-line interface."""

import argparse
import json
import os
import pathlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_every_seed_and_scale_has_help(self):
        """Every argument of every subcommand, not only --seed and
        --scale, carries help text."""
        parser = build_parser()
        (sub,) = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        checked = []
        for name, command in sub.choices.items():
            for action in command._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                flag = (action.option_strings or [action.dest])[0]
                label = f"{name} {flag}"
                checked.append(label)
                assert action.help, f"{label} has no help text"
        # Every command that takes either knob was walked.
        assert {"generate --seed", "profile --scale", "serve --scale",
                "gen --scale", "experiment --scale", "experiment name",
                "workload --jobs"} <= set(checked)


class TestGenerate:
    def test_synthetic_npz(self, tmp_path, capsys):
        out = tmp_path / "g.npz"
        code = main(
            ["generate", "--vertices", "500", "--alpha", "2.0",
             "--output", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "|V|=500" in capsys.readouterr().out

    def test_synthetic_edge_list(self, tmp_path):
        out = tmp_path / "g.txt"
        assert main(["generate", "--vertices", "100", "--output", str(out)]) == 0
        from repro.graph.io import read_edge_list

        g = read_edge_list(out)
        assert g.num_vertices == 100

    def test_dataset_standin(self, tmp_path, capsys):
        out = tmp_path / "amazon.npz"
        code = main(
            ["generate", "--dataset", "amazon", "--scale", "0.002",
             "--output", str(out)]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out

    def test_roundtrip_through_process(self, tmp_path, capsys):
        out = tmp_path / "g.npz"
        main(["generate", "--vertices", "400", "--output", str(out)])
        code = main(
            ["process", "--cluster", "c4.xlarge,c4.2xlarge",
             "--app", "connected_components", "--graph-file", str(out),
             "--policy", "threads", "--scale", "0.002"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "runtime" in text and "supersteps" in text


class TestProfile:
    def test_prints_pool_and_saves(self, tmp_path, capsys):
        out = tmp_path / "pool.json"
        code = main(
            ["profile", "--cluster", "c4.xlarge,c4.2xlarge",
             "--apps", "pagerank", "--scale", "0.001", "--output", str(out)]
        )
        assert code == 0
        pool = json.loads(out.read_text())
        assert "pagerank" in pool
        assert pool["pagerank"]["c4.xlarge"] == pytest.approx(1.0)
        assert "CCR" in capsys.readouterr().out


class TestProcess:
    def test_dataset_with_ccr_policy(self, capsys):
        code = main(
            ["process", "--cluster", "c4.xlarge,c4.8xlarge",
             "--app", "pagerank", "--dataset", "wiki",
             "--policy", "ccr", "--scale", "0.001"]
        )
        assert code == 0
        assert "pagerank" in capsys.readouterr().out

    def test_missing_graph_source(self, capsys):
        assert main(["process", "--cluster", "c4.xlarge",
                     "--app", "pagerank", "--scale", "0.001"]) == 2
        assert "--dataset" in capsys.readouterr().err

    def test_bad_cluster_name(self, capsys):
        """An unknown machine type is a usage error (exit 2, no traceback)
        on every command that takes ``--cluster``, as it is on ``serve``."""
        for argv in (
            ["process", "--cluster", "m4.2xlarge,z9.mega", "--app",
             "pagerank", "--dataset", "wiki", "--scale", "0.001"],
            ["profile", "--cluster", "m4.2xlarge,z9.mega", "--apps",
             "pagerank", "--scale", "0.001"],
        ):
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert "unknown machine type 'z9.mega'" in err, argv[0]
            assert "Traceback" not in err, argv[0]


_GOLDEN_PROCESS = (
    pathlib.Path(__file__).parent / "golden" / "process_stdout.json"
)

#: One crash on machine 1 at superstep 2, before the slowdown starts.
_ONE_CRASH = {"seed": 7, "crashes": [{"superstep": 2, "machine": 1}]}
#: The same crash plus a permanent 4x slowdown on machine 0 from
#: superstep 4, which the supervisor answers with a re-balance.
_CRASH_AND_SLOWDOWN = dict(
    _ONE_CRASH,
    slowdowns=[{"superstep": 4, "machine": 0, "factor": 4.0,
                "duration": None}],
)

#: One crash on machine 1 at stream epoch 3.
_ONE_EPOCH_CRASH = {"seed": 7, "crashes": [{"superstep": 3, "machine": 1}]}

#: id -> (fault schedule or None, extra flags).  A ``stream-`` id runs
#: ``process --mutations`` over 4 churn batches of 10 ops.
PROCESS_GOLDEN_CONFIGS = {
    "no-schedule": (None, []),
    "one-crash": (_ONE_CRASH, []),
    "crash-slowdown-rebalance": (_CRASH_AND_SLOWDOWN, []),
    "crash-slowdown-no-rebalance": (_CRASH_AND_SLOWDOWN, ["--no-rebalance"]),
    "crash-slowdown-threads": (_CRASH_AND_SLOWDOWN, ["--policy", "threads"]),
    "stream-undisturbed": (None, []),
    "stream-one-crash": (_ONE_EPOCH_CRASH, []),
    "stream-one-crash-no-checkpoints": (
        _ONE_EPOCH_CRASH, ["--checkpoint-every", "0"]
    ),
    "stream-checkpoint-every-2": (None, ["--checkpoint-every", "2"]),
}


def process_golden_stdout(config_id, tmp_path, capsys):
    """``repro process``'s stdout for one pinned configuration."""
    schedule, extra = PROCESS_GOLDEN_CONFIGS[config_id]
    graph = ["--dataset", "wiki", "--scale", "0.002"]
    argv = ["process", "--cluster",
            "m4.2xlarge,m4.2xlarge,c4.2xlarge,c4.2xlarge",
            "--app", "pagerank", *graph, *extra]
    if config_id.startswith("stream-"):
        stream = tmp_path / "churn.json"
        assert main(["stream", *graph, "--batches", "4", "--ops", "10",
                     "--seed", "3", "--output", str(stream)]) == 0
        argv += ["--mutations", str(stream)]
    if schedule is not None:
        path = tmp_path / f"{config_id}.json"
        path.write_text(json.dumps(schedule))
        argv += ["--fault-schedule", str(path)]
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


class TestProcessGolden:
    """``repro process`` prints the same bytes with and without a fault
    schedule, re-balance on or off, under two weight policies; and with
    ``--mutations``, with and without a crash and checkpoints."""

    @pytest.mark.parametrize("config_id", sorted(PROCESS_GOLDEN_CONFIGS))
    def test_stdout_matches_fixture(self, config_id, tmp_path, capsys):
        expected = json.loads(_GOLDEN_PROCESS.read_text())[config_id]
        assert process_golden_stdout(config_id, tmp_path, capsys) == expected


def _exit_code(argv):
    """main()'s return value, or the status of argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestErrorContract:
    """Every CLI failure exits 2 (usage or input error, ``error:`` on
    stderr) or 1 (the run itself failed, ``run FAILED:`` on stdout), and
    never shows a traceback.  ``{tmp}`` is the test's scratch directory;
    the last column is the offending input the message must name."""

    @staticmethod
    def _inputs(tmp):
        (tmp / "bad-faults.json").write_text(json.dumps(
            {"seed": 0, "crashes": [{"superstep": "x"}], "slowdowns": [],
             "network_faults": []}
        ))
        (tmp / "doomed.json").write_text(json.dumps(
            {"seed": 3, "crashes": [{"superstep": 2, "machine": 0,
                                     "repeats": 20}],
             "slowdowns": [], "network_faults": []}
        ))
        (tmp / "str-seed-faults.json").write_text(json.dumps(
            {"seed": "a", "crashes": [{"superstep": 1, "machine": 0}]}
        ))
        (tmp / "misspelt-faults.json").write_text(json.dumps(
            {"crashs": [{"superstep": 1, "machine": 0}]}
        ))
        (tmp / "frac-step-faults.json").write_text(json.dumps(
            {"crashes": [{"superstep": 1.5, "machine": 0}]}
        ))
        # Past about 1e308 an integer has no float, finite or not.
        (tmp / "huge-factor-faults.json").write_text(json.dumps(
            {"slowdowns": [{"superstep": 1, "machine": 0,
                            "factor": 10**400}]}
        ))
        # Past 4300 digits ``json.loads`` refuses to convert an integer.
        digits = "1" + "0" * 5000
        (tmp / "long-int-workload.json").write_text(
            '{"format_version": 4, "seed": %s, "jobs": []}' % digits
        )
        (tmp / "long-int-stream.json").write_text(
            '{"format_version": 1, "base_vertices": %s, "batches": []}'
            % digits
        )
        (tmp / "str-base-stream.json").write_text(json.dumps(
            {"format_version": 1, "base_vertices": "x", "batches": []}
        ))
        (tmp / "bad-edges.txt").write_text("0 1\nnot an edge\n")
        (tmp / "huge-edges.txt").write_text("0 9223372036854775808\n")
        (tmp / "three.txt").write_text("0 1\n1 2\n")
        (tmp / "frac-count-stream.json").write_text(json.dumps(
            {"format_version": 1, "base_vertices": 3,
             "batches": [[{"op": "add_vertices", "count": 1.5}]]}
        ))
        for name, field, value in (
            ("unknown-app", "app", "x"),
            ("null-app", "app", None),
            ("null-partitioner", "partitioner", None),
            ("huge-alpha", "graph", {"vertices": 50, "alpha": 10**400}),
        ):
            job = {"job_id": "j0", "app": "pagerank",
                   "graph": {"vertices": 50}}
            job[field] = value
            (tmp / f"{name}-workload.json").write_text(json.dumps(
                {"format_version": 4, "jobs": [job]}
            ))
        (tmp / "bad-workload.json").write_text("{nope")
        (tmp / "long-int-baseline.json").write_text(
            '{"version": 1%s}' % ("0" * 5000)
        )
        for name, files in (
            ("bad-manifest-run", {"manifest.json": "{bad"}),
            ("list-manifest-run", {"manifest.json": "[1,2]"}),
            ("bad-config-run", {"config.json": "{bad"}),
            ("bad-metrics-run", {"metrics.json": "[]"}),
            ("bad-trace-run", {"trace.json": "{bad"}),
            ("bad-spans-run", {"spans.jsonl": '{"name": "a"}\n{bad\n'}),
        ):
            run = tmp / name
            run.mkdir()
            (run / "manifest.json").write_text('{"format_version": 1}')
            for file, text in files.items():
                (run / file).write_text(text)
        # The first bytes of a zip archive, cut off before its directory.
        (tmp / "trunc.npz").write_bytes(b"PK\x03\x04" + bytes(60))

    RUN = ["--cluster", "c4.xlarge,c4.2xlarge", "--app", "pagerank",
           "--scale", "0.002"]

    @pytest.mark.parametrize(
        "argv, code, stream, prefix, names",
        [
            pytest.param(
                ["process", *RUN], 2, "err", "error:", "--dataset",
                id="no-graph-source"),
            pytest.param(
                ["process", *RUN, "--dataset", "wiki",
                 "--fault-schedule", "{tmp}/bad-faults.json"],
                2, "err", "error:", "fault schedule",
                id="malformed-fault-schedule"),
            pytest.param(
                ["process", *RUN, "--dataset", "wiki",
                 "--fault-schedule", "{tmp}/missing-faults.json"],
                2, "err", "error:", "missing-faults.json",
                id="missing-fault-schedule"),
            pytest.param(
                ["process", *RUN, "--dataset", "wiki",
                 "--fault-schedule", "{tmp}/str-seed-faults.json"],
                2, "err", "error:", "seed", id="string-fault-schedule-seed"),
            pytest.param(
                ["process", *RUN, "--dataset", "wiki",
                 "--fault-schedule", "{tmp}/misspelt-faults.json"],
                2, "err", "error:", "crashs",
                id="unknown-fault-schedule-field"),
            pytest.param(
                ["process", *RUN, "--dataset", "wiki",
                 "--fault-schedule", "{tmp}/frac-step-faults.json"],
                2, "err", "error:", "superstep",
                id="fractional-fault-superstep"),
            pytest.param(
                ["process", *RUN, "--dataset", "wiki",
                 "--fault-schedule", "{tmp}/huge-factor-faults.json"],
                2, "err", "error:", "slowdown factor must be a finite number",
                id="huge-integer-fault-factor"),
            pytest.param(
                ["process", *RUN, "--dataset", "wiki",
                 "--mutations", "{tmp}/str-base-stream.json"],
                2, "err", "error:", "base_vertices",
                id="string-stream-base-vertices"),
            pytest.param(
                ["process", *RUN, "--graph-file", "{tmp}/three.txt",
                 "--mutations", "{tmp}/frac-count-stream.json"],
                2, "err", "error:", "add_vertices count",
                id="fractional-stream-op-count"),
            pytest.param(
                ["serve", "--cluster", "c4.xlarge",
                 "--workload", "{tmp}/unknown-app-workload.json"],
                2, "err", "error:", "unknown app 'x'",
                id="workload-unknown-app-name"),
            pytest.param(
                ["serve", "--cluster", "c4.xlarge",
                 "--workload", "{tmp}/null-app-workload.json"],
                2, "err", "error:", "'app' must be a string",
                id="workload-null-app"),
            pytest.param(
                ["serve", "--cluster", "c4.xlarge",
                 "--workload", "{tmp}/null-partitioner-workload.json"],
                2, "err", "error:", "'partitioner' must be a string",
                id="workload-null-partitioner"),
            pytest.param(
                ["serve", "--cluster", "c4.xlarge",
                 "--workload", "{tmp}/huge-alpha-workload.json"],
                2, "err", "error:", "graph alpha must be a finite number",
                id="workload-huge-integer-graph-alpha"),
            pytest.param(
                ["serve", "--cluster", "c4.xlarge",
                 "--workload", "{tmp}/long-int-workload.json"],
                2, "err", "error:", "malformed workload JSON",
                id="workload-over-long-integer-text"),
            pytest.param(
                ["process", *RUN, "--graph-file", "{tmp}/three.txt",
                 "--mutations", "{tmp}/long-int-stream.json"],
                2, "err", "error:", "malformed mutation stream JSON",
                id="stream-over-long-integer-text"),
            pytest.param(
                ["process", *RUN, "--graph-file", "{tmp}/bad-edges.txt"],
                2, "err", "error:", "bad-edges.txt",
                id="malformed-graph-file"),
            pytest.param(
                ["process", *RUN, "--graph-file", "{tmp}/huge-edges.txt"],
                2, "err", "error:", "huge-edges.txt:1",
                id="graph-file-endpoint-outside-int64"),
            pytest.param(
                ["process", *RUN, "--graph-file", "{tmp}/trunc.npz"],
                2, "err", "error:", "trunc.npz",
                id="truncated-npz-graph-file"),
            pytest.param(
                ["metrics", "{tmp}/no-such-run"], 2, "err", "error:",
                "no-such-run", id="metrics-missing-dir"),
            pytest.param(
                ["lint", "src/repro/utils",
                 "--baseline", "{tmp}/long-int-baseline.json"],
                2, "err", "error:", "long-int-baseline.json",
                id="lint-baseline-over-long-integer-text"),
            *[
                pytest.param(
                    ["metrics", "{tmp}/%s-run" % run], 2, "err", "error:",
                    f"{run}-run{os.sep}{file}", id=f"metrics-{run}")
                for run, file in (
                    ("bad-manifest", "manifest.json"),
                    ("list-manifest", "manifest.json"),
                    ("bad-config", "config.json"),
                    ("bad-metrics", "metrics.json"),
                    ("bad-trace", "trace.json"),
                    ("bad-spans", "spans.jsonl:2"),
                )
            ],
            pytest.param(
                ["profile", "--cluster", "c4.xlarge", "--apps", "bogus"],
                2, "err", "error:", "bogus", id="profile-unknown-app"),
            pytest.param(
                ["workload", "--apps", "pagerank,bogus",
                 "--output", "{tmp}/w.json"],
                2, "err", "error:", "bogus", id="workload-unknown-app"),
            pytest.param(
                ["gen", "--store", "{tmp}/s.db", "--init", "--all",
                 "--workload", "{tmp}/bad-workload.json",
                 "--cluster", "m4.2xlarge"],
                2, "err", "error:", "workload", id="gen-malformed-workload"),
            pytest.param(
                ["generate", "--vertices", "50",
                 "--output", "{tmp}/no-such-dir/x.npz"],
                2, "err", "error:", "no-such-dir", id="write-to-missing-dir"),
            pytest.param(
                ["process", *RUN, "--dataset", "wiki",
                 "--fault-schedule", "{tmp}/doomed.json",
                 "--max-retries", "2"],
                1, "out", "run FAILED:", "retry budget",
                id="retry-budget-exhausted"),
        ],
    )
    def test_exit_code_and_message(
        self, argv, code, stream, prefix, names, tmp_path, capsys
    ):
        self._inputs(tmp_path)
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert _exit_code(argv) == code
        captured = capsys.readouterr()
        text = captured.out if stream == "out" else captured.err
        assert prefix in text
        assert names in text
        assert "Traceback" not in captured.out + captured.err

    def test_failed_run_still_writes_obs_artifacts(self, tmp_path, capsys):
        """A streaming run that exhausts its retry budget keeps its
        spans and metrics, as a non-streaming one does."""
        from repro.obs import load_run_artifacts

        self._inputs(tmp_path)
        graph = str(tmp_path / "g.npz")
        stream = str(tmp_path / "s.json")
        assert main(["generate", "--vertices", "300", "--seed", "5",
                     "--output", graph]) == 0
        assert main(["stream", "--graph-file", graph, "--batches", "3",
                     "--ops", "6", "--seed", "11", "--output", stream]) == 0
        run_dir = tmp_path / "obs"
        code = main(["process", "--cluster", "m4.2xlarge,c4.2xlarge",
                     "--app", "pagerank", "--graph-file", graph,
                     "--mutations", stream,
                     "--fault-schedule", str(tmp_path / "doomed.json"),
                     "--max-retries", "1", "--obs-dir", str(run_dir)])
        assert code == 1
        assert "run FAILED:" in capsys.readouterr().out
        assert load_run_artifacts(str(run_dir)).spans


class TestValidation:
    """Bad numeric arguments die with argparse's usage error (exit 2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--vertices", "0"],
            ["generate", "--vertices", "-5"],
            ["generate", "--alpha", "1.0"],
            ["generate", "--alpha", "0.9"],
            ["generate", "--scale", "0"],
            ["generate", "--scale", "1.5"],
            ["faults", "--machines", "0"],
            ["faults", "--machines", "4", "--crash-rate", "1.5"],
            ["faults", "--machines", "4", "--slowdown-rate", "-0.1"],
            ["process", "--cluster", "c4.xlarge", "--app", "pagerank",
             "--dataset", "wiki", "--max-retries", "0"],
        ],
    )
    def test_rejected_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: argument" in capsys.readouterr().err

    def test_valid_values_still_accepted(self, tmp_path):
        out = tmp_path / "g.npz"
        assert main(["generate", "--vertices", "200", "--alpha", "1.8",
                     "--output", str(out)]) == 0


class TestFaults:
    def test_generate_prints_and_saves(self, tmp_path, capsys):
        out = tmp_path / "sched.json"
        code = main(
            ["faults", "--machines", "4", "--supersteps", "30",
             "--crash-rate", "0.05", "--slowdown-rate", "0.05",
             "--seed", "7", "--output", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "fault schedule" in text
        assert out.exists()
        from repro.faults.schedule import FaultSchedule

        sched = FaultSchedule.load(out)
        assert not sched.is_empty

    def test_process_with_fault_schedule(self, tmp_path, capsys):
        from repro.faults.schedule import CrashFault, FaultSchedule

        path = tmp_path / "crash.json"
        FaultSchedule(crashes=(CrashFault(superstep=2, machine=0),),
                      seed=3).save(path)
        code = main(
            ["process", "--cluster", "c4.xlarge,c4.2xlarge",
             "--app", "pagerank", "--dataset", "wiki", "--scale", "0.002",
             "--fault-schedule", str(path)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "resilience" in text
        assert "1 crash(es)" in text

    def test_process_reports_run_failure(self, tmp_path, capsys):
        from repro.faults.schedule import CrashFault, FaultSchedule

        path = tmp_path / "doomed.json"
        FaultSchedule(crashes=(CrashFault(superstep=2, machine=0,
                                          repeats=20),), seed=3).save(path)
        code = main(
            ["process", "--cluster", "c4.xlarge,c4.2xlarge",
             "--app", "pagerank", "--dataset", "wiki", "--scale", "0.002",
             "--fault-schedule", str(path), "--max-retries", "2"]
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_strict_passes_on_converged_run(self, capsys):
        code = main(
            ["process", "--cluster", "c4.xlarge,c4.2xlarge",
             "--app", "pagerank", "--dataset", "wiki", "--scale", "0.002",
             "--strict"]
        )
        assert code == 0
        assert "warning" not in capsys.readouterr().out


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "c4.8xlarge" in capsys.readouterr().out

    def test_fig6(self, capsys):
        assert main(["experiment", "fig6"]) == 0
        assert "experiment fig6" in capsys.readouterr().out

    def test_fig2_scaled(self, capsys):
        assert main(["experiment", "fig2", "--scale", "0.0015"]) == 0
        out = capsys.readouterr().out
        assert "prior_estimate" in out

    def test_obs_dir_records_provenance(self, tmp_path, capsys):
        from repro.obs import load_run_artifacts

        run_dir = tmp_path / "obs"
        assert main(["experiment", "fig6", "--obs-dir", str(run_dir)]) == 0
        run = load_run_artifacts(str(run_dir))
        assert run.config.get("experiment") == "fig6"
        assert "experiment/provenance" in run.span_names()


class TestObservability:
    """`repro process --obs-dir` and the `repro metrics` subcommand."""

    @staticmethod
    def _process(run_dir, app="pagerank", extra=()):
        return main(
            ["process", "--cluster", "c4.xlarge,c4.2xlarge",
             "--app", app, "--dataset", "wiki", "--scale", "0.002",
             "--obs-dir", str(run_dir), *extra]
        )

    def test_process_writes_run_artifacts(self, tmp_path, capsys):
        from repro.obs import load_run_artifacts

        run_dir = tmp_path / "run"
        assert self._process(run_dir) == 0
        out = capsys.readouterr().out
        assert "observability" in out

        run = load_run_artifacts(str(run_dir))
        names = run.span_names()
        assert "engine/run" in names
        assert "superstep" in names
        assert any(k.startswith("partition/") for k in names)
        assert run.trace is not None and run.trace["app"] == "pagerank"
        assert run.config["app"] == "pagerank"
        assert any(
            k.startswith("engine.edge_ops") for k in run.metrics["counters"]
        )

    def test_process_records_cache_gauges(self, tmp_path, capsys):
        from repro.obs import load_run_artifacts

        assert self._process(tmp_path / "cold") == 0
        assert self._process(tmp_path / "warm") == 0
        cold = load_run_artifacts(str(tmp_path / "cold"))
        warm = load_run_artifacts(str(tmp_path / "warm"))
        key = "cache.{}{{namespace=trace}}"
        assert cold.metrics["gauges"][key.format("misses")] >= 1
        assert cold.metrics["gauges"][key.format("hits")] == 0
        for field in ("hits", "misses", "store_hits"):
            assert key.format(field) in warm.metrics["gauges"]
        # The warm run was served from the caches: hits, and no engine.
        assert warm.metrics["gauges"][key.format("hits")] >= 1
        assert "engine/run" in cold.span_names()
        assert "engine/run" not in warm.span_names()

    def test_obs_does_not_change_output(self, tmp_path, capsys):
        args = ["process", "--cluster", "c4.xlarge,c4.2xlarge",
                "--app", "pagerank", "--dataset", "wiki", "--scale", "0.002"]
        assert main(args) == 0
        dark = capsys.readouterr().out
        assert main(args + ["--obs-dir", str(tmp_path / "run")]) == 0
        lit = capsys.readouterr().out
        # Identical except for the trailing artifact pointer line.
        lit_lines = [l for l in lit.splitlines() if "observability" not in l]
        assert lit_lines == dark.splitlines()

    def test_metrics_summarize(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert self._process(run_dir) == 0
        capsys.readouterr()
        assert main(["metrics", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "section" in out
        assert "engine.supersteps" in out

    def test_metrics_diff(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self._process(a, app="pagerank") == 0
        assert self._process(b, app="connected_components") == 0
        capsys.readouterr()
        assert main(["metrics", str(a), "--diff", str(b)]) == 0
        out = capsys.readouterr().out
        assert "delta" in out and "-" in out

    def test_metrics_rejects_non_run_dir(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "manifest" in err
        assert str(tmp_path) in err

    def test_faulted_process_with_obs(self, tmp_path, capsys):
        from repro.faults.schedule import CrashFault, FaultSchedule
        from repro.obs import load_run_artifacts

        sched = tmp_path / "crash.json"
        FaultSchedule(crashes=(CrashFault(superstep=2, machine=0),),
                      seed=3).save(sched)
        run_dir = tmp_path / "run"
        assert self._process(
            run_dir, extra=["--fault-schedule", str(sched)]
        ) == 0
        run = load_run_artifacts(str(run_dir))
        names = run.span_names()
        assert "resilience/price" in names
        assert "resilience/crash" in names
        assert any(
            k.startswith("resilience.crashes")
            for k in run.metrics["counters"]
        )
