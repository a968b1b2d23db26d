"""CLI exit-path tests for `repro stream` and streaming run flags."""

import json

import pytest

from repro.cli import main
from repro.streaming import MutationStream

CLUSTER = "m4.2xlarge,c4.2xlarge"


@pytest.fixture
def graph_file(tmp_path):
    path = str(tmp_path / "g.npz")
    assert main(["generate", "--vertices", "300", "--seed", "5",
                 "--output", path]) == 0
    return path


@pytest.fixture
def stream_file(tmp_path, graph_file):
    path = str(tmp_path / "stream.json")
    assert main(["stream", "--graph-file", graph_file, "--batches", "3",
                 "--ops", "6", "--seed", "11", "--output", path]) == 0
    return path


class TestStreamCommand:
    def test_generate_writes_loadable_stream(
        self, tmp_path, graph_file, capsys
    ):
        path = str(tmp_path / "fresh.json")
        capsys.readouterr()
        assert main(["stream", "--graph-file", graph_file, "--batches", "3",
                     "--ops", "6", "--seed", "11", "--output", path]) == 0
        out = capsys.readouterr().out
        assert "3 batch(es)" in out
        assert "fingerprint" in out
        stream = MutationStream.load(path)
        assert stream.num_batches == 3
        assert stream.base_vertices == 300

    def test_same_seed_same_file(self, tmp_path, graph_file):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        for path in (a, b):
            assert main(["stream", "--graph-file", graph_file,
                         "--seed", "9", "--output", path]) == 0
        with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
            assert fa.read() == fb.read()

    def test_describe_mode_prints_table(self, stream_file, capsys):
        capsys.readouterr()
        assert main(["stream", "--input", stream_file]) == 0
        out = capsys.readouterr().out
        assert "300 base vertices" in out
        assert "fingerprint" in out

    def test_describe_conflicts_with_generate(self, stream_file, graph_file):
        assert main(["stream", "--input", stream_file,
                     "--graph-file", graph_file]) == 2

    def test_requires_output_or_input(self, graph_file):
        assert main(["stream", "--graph-file", graph_file]) == 2

    def test_malformed_stream_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format_version": 99, "batches": []}))
        assert main(["stream", "--input", str(bad)]) == 2
        assert "not supported" in capsys.readouterr().err

    def test_missing_stream_file_exits_2(self, tmp_path):
        assert main(["stream", "--input", str(tmp_path / "nope.json")]) == 2


class TestProcessMutations:
    def test_streaming_run_prints_epoch_table(
        self, graph_file, stream_file, capsys
    ):
        capsys.readouterr()
        code = main(["process", "--cluster", CLUSTER, "--app", "pagerank",
                     "--graph-file", graph_file,
                     "--mutations", stream_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "streaming run: pagerank" in out
        assert "reassigned edges" in out

    def test_stream_out_is_reproducible(
        self, tmp_path, graph_file, stream_file
    ):
        t1 = str(tmp_path / "t1.json")
        t2 = str(tmp_path / "t2.json")
        for path in (t1, t2):
            assert main(["process", "--cluster", CLUSTER,
                         "--app", "pagerank", "--graph-file", graph_file,
                         "--mutations", stream_file,
                         "--stream-out", path]) == 0
        with open(t1, encoding="utf-8") as fa, open(t2, encoding="utf-8") as fb:
            assert fa.read() == fb.read()

    def test_crash_schedule_recovers_byte_identically(
        self, tmp_path, graph_file, stream_file, capsys
    ):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({
            "seed": 0,
            "crashes": [{"superstep": 2, "machine": 0, "repeats": 1}],
            "slowdowns": [],
            "network_faults": [],
        }))
        plain = str(tmp_path / "plain.json")
        recovered = str(tmp_path / "recovered.json")
        assert main(["process", "--cluster", CLUSTER, "--app", "pagerank",
                     "--graph-file", graph_file, "--mutations", stream_file,
                     "--stream-out", plain]) == 0
        capsys.readouterr()
        code = main(["process", "--cluster", CLUSTER, "--app", "pagerank",
                     "--graph-file", graph_file, "--mutations", stream_file,
                     "--fault-schedule", str(faults),
                     "--checkpoint-every", "1",
                     "--stream-out", recovered])
        assert code == 0
        assert "resilience       : 1 crash(es)" in capsys.readouterr().out
        with open(plain, encoding="utf-8") as fa, \
                open(recovered, encoding="utf-8") as fb:
            assert fa.read() == fb.read()

    def test_slowdown_schedule_with_mutations_exits_2(
        self, tmp_path, graph_file, stream_file, capsys
    ):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({
            "seed": 0,
            "crashes": [],
            "slowdowns": [{"superstep": 0, "machine": 0, "factor": 2.0,
                           "duration": 1}],
            "network_faults": [],
        }))
        code = main(["process", "--cluster", CLUSTER, "--app", "pagerank",
                     "--graph-file", graph_file, "--mutations", stream_file,
                     "--fault-schedule", str(faults)])
        assert code == 2
        assert "crash faults only" in capsys.readouterr().err

    def test_missing_fault_schedule_exits_2(
        self, graph_file, stream_file, capsys
    ):
        code = main(["process", "--cluster", CLUSTER, "--app", "pagerank",
                     "--graph-file", graph_file, "--mutations", stream_file,
                     "--fault-schedule", "whatever.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "whatever.json" in err

    def test_wrong_base_graph_exits_2(self, tmp_path, stream_file, capsys):
        other = str(tmp_path / "other.npz")
        assert main(["generate", "--vertices", "50", "--seed", "1",
                     "--output", other]) == 0
        capsys.readouterr()
        code = main(["process", "--cluster", CLUSTER, "--app", "pagerank",
                     "--graph-file", other, "--mutations", stream_file])
        assert code == 2
        assert "300 vertices" in capsys.readouterr().err

    def test_malformed_mutations_file_exits_2(self, tmp_path, graph_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["process", "--cluster", CLUSTER, "--app", "pagerank",
                     "--graph-file", graph_file,
                     "--mutations", str(bad)]) == 2

    def test_halo_zero_repairs_only_touched_vertices(
        self, graph_file, stream_file, capsys
    ):
        capsys.readouterr()
        code = main(["process", "--cluster", CLUSTER, "--app", "pagerank",
                     "--graph-file", graph_file, "--mutations", stream_file,
                     "--halo", "0"])
        assert code == 0
        assert "(halo 0, 3 batch(es))" in capsys.readouterr().out

    def test_negative_halo_exits_2(self, graph_file, stream_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["process", "--cluster", CLUSTER, "--app", "pagerank",
                  "--graph-file", graph_file, "--mutations", stream_file,
                  "--halo", "-1"])
        assert exc.value.code == 2
        assert "--halo: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("strict", [False, True])
    def test_strict_fails_on_unconverged_epoch(
        self, graph_file, stream_file, capsys, monkeypatch, strict
    ):
        """A PageRank with a 2-superstep budget cannot converge: the run
        passes without ``--strict`` and fails naming epoch 0 with it."""
        from repro.apps import registry
        from repro.apps.pagerank import PageRank

        monkeypatch.setattr(
            registry, "make_app", lambda name: PageRank(max_supersteps=2)
        )
        capsys.readouterr()
        code = main(["process", "--cluster", CLUSTER, "--app", "pagerank",
                     "--graph-file", graph_file, "--mutations", stream_file,
                     "--policy", "threads", *(["--strict"] if strict else [])])
        out = capsys.readouterr().out
        if strict:
            assert code == 1
            assert ("run FAILED: pagerank did not converge within 2 "
                    "supersteps in stream epoch 0") in out
            assert "streaming run:" not in out
        else:
            assert code == 0
            assert "streaming run: pagerank" in out

    def test_obs_artifacts_include_streaming_trace(
        self, tmp_path, graph_file, stream_file
    ):
        obs_dir = str(tmp_path / "obsrun")
        assert main(["process", "--cluster", CLUSTER, "--app", "pagerank",
                     "--graph-file", graph_file, "--mutations", stream_file,
                     "--obs-dir", obs_dir]) == 0
        with open(f"{obs_dir}/trace.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["app"] == "pagerank"
        assert len(doc["epochs"]) == 4


class TestExperimentMutations:
    def test_churn_accepts_stream_file(self, tmp_path, capsys):
        # The churn experiment's base graph is the 1200-vertex recipe.
        g = str(tmp_path / "g.npz")
        assert main(["generate", "--vertices", "1200", "--alpha", "2.1",
                     "--seed", "1234", "--output", g]) == 0
        s = str(tmp_path / "s.json")
        assert main(["stream", "--graph-file", g, "--batches", "2",
                     "--ops", "4", "--seed", "2", "--output", s]) == 0
        capsys.readouterr()
        assert main(["experiment", "churn", "--mutations", s]) == 0
        out = capsys.readouterr().out
        assert "work ratio" in out

    def test_mutations_rejected_for_other_experiments(self, tmp_path, capsys):
        s = tmp_path / "s.json"
        s.write_text(json.dumps({"format_version": 1, "batches": []}))
        assert main(["experiment", "table1", "--mutations", str(s)]) == 2
        assert "only applies" in capsys.readouterr().err

    def test_churn_runs_without_stream(self, capsys):
        assert main(["experiment", "churn"]) == 0
        out = capsys.readouterr().out
        assert "work ratio" in out
