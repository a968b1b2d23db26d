"""Unit tests for the `repro workload` and `repro serve` commands."""

import json

import pytest

from repro.cli import main
from repro.service import Workload

CLUSTER = "m4.2xlarge,c4.2xlarge"


def write_workload(tmp_path, num_jobs=6, extra=()):
    path = str(tmp_path / "wl.json")
    argv = [
        "workload", "--jobs", str(num_jobs), "--seed", "7",
        "--mean-interarrival", "0.05", "--output", path,
    ]
    argv.extend(extra)
    assert main(argv) == 0
    return path


class TestWorkloadCommand:
    def test_generates_loadable_file(self, tmp_path, capsys):
        path = write_workload(tmp_path)
        out = capsys.readouterr().out
        assert "6 job(s)" in out
        workload = Workload.load(path)
        assert workload.num_jobs == 6
        assert workload.seed == 7

    def test_same_seed_same_file(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        for path in (a, b):
            assert main(["workload", "--jobs", "5", "--seed", "7",
                         "--output", path]) == 0
        with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
            assert fa.read() == fb.read()

    def test_rejects_zero_jobs(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["workload", "--jobs", "0",
                  "--output", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_rejects_bad_fraction(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["workload", "--jobs", "5", "--deadline-fraction", "1.5",
                  "--output", str(tmp_path / "x.json")])
        assert exc.value.code == 2


class TestServeCommand:
    def test_replay_prints_summary(self, tmp_path, capsys):
        path = write_workload(tmp_path)
        code = main(["serve", "--cluster", CLUSTER, "--workload", path])
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs_submitted" in out
        assert "rejection_rate" in out

    def test_json_output_parses(self, tmp_path, capsys):
        path = write_workload(tmp_path)
        capsys.readouterr()
        assert main(["serve", "--cluster", CLUSTER, "--workload", path,
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["jobs_submitted"] == 6
        assert "rejection_rate" in summary

    def test_trace_out_is_reproducible(self, tmp_path, capsys):
        path = write_workload(tmp_path)
        t1 = str(tmp_path / "t1.json")
        t2 = str(tmp_path / "t2.json")
        assert main(["serve", "--cluster", CLUSTER, "--workload", path,
                     "--trace-out", t1]) == 0
        assert main(["serve", "--cluster", CLUSTER, "--workload", path,
                     "--trace-out", t2]) == 0
        capsys.readouterr()
        with open(t1, encoding="utf-8") as f1, open(t2, encoding="utf-8") as f2:
            assert f1.read() == f2.read()

    def test_blanket_deadline_applies_to_undated_jobs(self, tmp_path, capsys):
        path = write_workload(tmp_path)
        capsys.readouterr()
        assert main(["serve", "--cluster", CLUSTER, "--workload", path,
                     "--deadline", "1e-9", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["jobs_deadline_exceeded"] == 6

    def test_obs_dir_records_service_counters(self, tmp_path, capsys):
        path = write_workload(tmp_path)
        obs_dir = tmp_path / "obs"
        assert main(["serve", "--cluster", CLUSTER, "--workload", path,
                     "--obs-dir", str(obs_dir)]) == 0
        capsys.readouterr()
        with open(obs_dir / "metrics.json", encoding="utf-8") as fh:
            counters = json.load(fh)["counters"]
        assert counters["service.admitted"] > 0
        assert "service.completed" in counters


class TestServeHardening:
    def test_missing_workload_file_exits_2(self, tmp_path, capsys):
        code = main(["serve", "--cluster", CLUSTER,
                     "--workload", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_record_points_at_index(self, tmp_path, capsys):
        path = write_workload(tmp_path)
        payload = json.loads(open(path, encoding="utf-8").read())
        payload["jobs"][3]["deadline_s"] = -1.0
        bad = str(tmp_path / "bad.json")
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        code = main(["serve", "--cluster", CLUSTER, "--workload", bad])
        assert code == 2
        err = capsys.readouterr().err
        assert "jobs[3]" in err
        assert "deadline_s" in err

    def test_wrong_typed_fault_rate_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps({"format_version": 4, "jobs": [{
            "job_id": "j0", "app": "pagerank", "graph": {"vertices": 50},
            "fault_rates": {"crash_rate": "x"},
        }]}))
        code = main(["serve", "--cluster", CLUSTER, "--workload", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "jobs[0]" in captured.err
        assert "crash_rate" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_zero_deadline_rejected_by_parser(self, tmp_path):
        path = write_workload(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--cluster", CLUSTER, "--workload", path,
                  "--deadline", "0"])
        assert exc.value.code == 2

    def test_negative_deadline_rejected_by_parser(self, tmp_path):
        path = write_workload(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--cluster", CLUSTER, "--workload", path,
                  "--deadline", "-5"])
        assert exc.value.code == 2

    def test_bad_policy_combination_exits_2(self, tmp_path, capsys):
        path = write_workload(tmp_path)
        code = main(["serve", "--cluster", CLUSTER, "--workload", path,
                     "--breaker-cooldown", "1", "--max-queue-depth", "4",
                     "--shed-priority-max", "-1", "--shed-cap", "1",
                     "--shed-depth", "1", "--max-attempts", "1",
                     "--breaker-threshold", "1", "--scale", "0.01"])
        # All individually valid: replay succeeds.
        assert code == 0
        capsys.readouterr()

    def test_unknown_cluster_machine_exits_2(self, tmp_path, capsys):
        path = write_workload(tmp_path)
        code = main(["serve", "--cluster", "warp9.xlarge",
                     "--workload", path])
        assert code == 2
        assert "unknown machine type" in capsys.readouterr().err
