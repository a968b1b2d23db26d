"""Unit tests for the `repro workload` and `repro serve` commands."""

import contextlib
import io
import json
import pathlib

import pytest

from repro.cli import main
from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.service import Workload
from repro.store import SummaryStore
from repro.store.gen import run_summary_key, warm_store
from repro.testing import golden_federated_stream_workload

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


_GOLDEN_SERVE = pathlib.Path(__file__).parent / "golden" / "serve_stdout.json"

#: The pinned mixed workload: 12 jobs, 9 of them faulted, machine 1 hot
#: enough to trip its breaker.
_MIXED_WORKLOAD = [
    "workload", "--jobs", "12", "--seed", "3", "--mean-interarrival",
    "0.02", "--deadline-fraction", "0.2", "--fault-fraction", "0.3",
    "--hot-machine", "1", "--hot-fraction", "0.4", "--hot-repeats", "2",
]

#: The mixed workload with a shard-crash schedule embedded.
_EMBEDDED_SHARD_FAULTS = [
    "--shards", "2", "--shard-crash-rate", "0.95", "--shard-horizon", "0.3",
]

#: id -> (workload: ``mixed``, ``embedded`` or ``stream``, extra flags).
#: ``{shard_faults}`` is a 4-shard crash schedule written beside the
#: workload; ``{tmp}`` is the test's scratch directory.
SERVE_GOLDEN_CONFIGS = {
    "plain": ("mixed", []),
    "plain-json": ("mixed", ["--json"]),
    "plain-trace-out": ("mixed", ["--trace-out", "{tmp}/trace.json"]),
    "embedded-shard-faults": ("embedded", []),
    "shards-1": ("mixed", ["--shards", "1"]),
    "shards-4-shard-faults": (
        "mixed", ["--shards", "4", "--shard-faults", "{shard_faults}"]
    ),
    "stream-checkpoint-every-1": ("stream", ["--checkpoint-every", "1"]),
}


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def serve_golden_stdout(config_id, tmp_path):
    """``repro serve``'s stdout for one pinned configuration.

    Paths under ``tmp_path`` print as ``{tmp}``; a ``--trace-out`` run's
    file follows its stdout.
    """
    kind, extra = SERVE_GOLDEN_CONFIGS[config_id]
    workload = tmp_path / f"{kind}.json"
    if kind == "stream":
        golden_federated_stream_workload().save(str(workload))
    else:
        embedded = _EMBEDDED_SHARD_FAULTS if kind == "embedded" else []
        _quiet_main([*_MIXED_WORKLOAD, *embedded, "--output", str(workload)])
    shard_faults = tmp_path / "shard-faults.json"
    if "{shard_faults}" in extra:
        _quiet_main(["faults", "--shards", "4", "--seed", "5",
                     "--crash-rate", "0.9", "--horizon-s", "0.3",
                     "--output", str(shard_faults)])
    flags = [
        flag.format(tmp=tmp_path, shard_faults=shard_faults)
        for flag in extra
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["serve", "--cluster", CLUSTER, "--workload",
                     str(workload), *flags]) == 0
    text = out.getvalue().replace(str(tmp_path), "{tmp}")
    if "--trace-out" in extra:
        text += (tmp_path / "trace.json").read_text(encoding="utf-8")
    return text


#: Golden id -> (cluster count, workload) of a pinned ``warm_store`` row.
WARM_STORE_GOLDEN = {
    "warm-store-1-cluster": (1, "mixed"),
    "warm-store-1-cluster-embedded-shard-faults": (1, "embedded"),
    "warm-store-4-clusters": (4, "mixed"),
}


def warm_store_summary(golden_id, tmp_path):
    """The ``run_summary`` row ``warm_store`` writes for one pinned
    configuration, as stored."""
    num_clusters, kind = WARM_STORE_GOLDEN[golden_id]
    embedded = _EMBEDDED_SHARD_FAULTS if kind == "embedded" else []
    path = tmp_path / "wl.json"
    _quiet_main([*_MIXED_WORKLOAD, *embedded, "--output", str(path)])
    workload = Workload.load(str(path))
    clusters = [
        Cluster(
            [get_machine("m4.2xlarge"), get_machine("c4.2xlarge")],
            perf=PerformanceModel(model_scale=0.01),
        )
        for _ in range(num_clusters)
    ]
    with SummaryStore.create(str(tmp_path / "store.sqlite")) as store:
        warm_store(store, workload, clusters)
        row = store.get(
            "run_summary",
            run_summary_key(clusters, workload, "default", num_clusters),
        )
    assert row is not None
    return row.decode("utf-8")


class TestServeGolden:
    """``repro serve`` prints the same bytes in service mode (text,
    ``--json``, ``--trace-out``), on a workload with embedded shard
    faults, with ``--shards 1``, with ``--shards 4`` and a shard-fault
    file, and on a streaming job checkpointing every epoch; ``warm_store``
    writes the same run summary for one and for four clusters."""

    @pytest.mark.parametrize("config_id", sorted(SERVE_GOLDEN_CONFIGS))
    def test_stdout_matches_fixture(self, config_id, tmp_path):
        expected = json.loads(_GOLDEN_SERVE.read_text())[config_id]
        assert serve_golden_stdout(config_id, tmp_path) == expected

    @pytest.mark.parametrize("golden_id", sorted(WARM_STORE_GOLDEN))
    def test_warm_store_summary_matches_fixture(self, golden_id, tmp_path):
        expected = json.loads(_GOLDEN_SERVE.read_text())[golden_id]
        assert warm_store_summary(golden_id, tmp_path) == expected


class TestServiceMode:
    def test_embedded_shard_faults_are_ignored(self, tmp_path):
        """Plain ``serve`` is one service with no shard to crash: a
        shard-crash schedule embedded in the workload changes no byte of
        its trace, while ``--shards`` replays that schedule."""
        plain = tmp_path / "plain.json"
        faulted = tmp_path / "faulted.json"
        _quiet_main([*_MIXED_WORKLOAD, "--output", str(plain)])
        _quiet_main([*_MIXED_WORKLOAD, *_EMBEDDED_SHARD_FAULTS,
                     "--output", str(faulted)])
        assert Workload.load(str(faulted)).shard_faults.crashes
        traces = []
        for workload in (plain, faulted):
            trace = tmp_path / f"{workload.stem}.trace.json"
            _quiet_main(["serve", "--cluster", CLUSTER, "--workload",
                         str(workload), "--trace-out", str(trace)])
            traces.append(trace.read_text(encoding="utf-8"))
        assert traces[0] == traces[1]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["serve", "--cluster", CLUSTER, "--workload",
                         str(faulted), "--shards", "2", "--json"]) == 0
        assert json.loads(out.getvalue())["shard_crashes"] >= 1
