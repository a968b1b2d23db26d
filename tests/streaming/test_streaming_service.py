"""Streaming jobs through the service: format v3 gate, admission, pricing."""

import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.errors import WorkloadFormatError
from repro.faults.checkpoint import CheckpointPolicy
from repro.faults.schedule import CrashFault, FaultSchedule
from repro.federation import FederationService
from repro.powerlaw.generator import generate_power_law_graph
from repro.service import (
    STATUS_COMPLETED,
    STATUS_REJECTED,
    GraphSpec,
    JobRequest,
    Workload,
)
from repro.service.request import (
    SUPPORTED_FORMAT_VERSIONS,
    WORKLOAD_FORMAT_VERSION,
)
from repro.streaming import (
    AddEdge,
    MutationBatch,
    MutationStream,
    RemoveVertex,
    StreamingSystem,
    generate_stream,
)

VERTICES = 300


@pytest.fixture
def pair() -> Cluster:
    return Cluster(
        [get_machine("m4.2xlarge"), get_machine("c4.2xlarge")],
        perf=PerformanceModel(model_scale=0.01),
    )


def stream_for_base(seed=3):
    graph = generate_power_law_graph(
        num_vertices=VERTICES, alpha=2.1, seed=0
    )
    return generate_stream(
        graph, pattern="churn", num_batches=3, ops_per_batch=6, seed=seed
    )


def streaming_job(job_id="s0", seed=3, **kwargs):
    spec = GraphSpec(
        vertices=VERTICES, alpha=2.1, seed=0, mutations=stream_for_base(seed)
    )
    return JobRequest(job_id=job_id, app="pagerank", graph=spec, **kwargs)


class TestFormatVersionGate:
    def test_version_4_is_current_and_supported(self):
        assert WORKLOAD_FORMAT_VERSION == 4
        assert 3 in SUPPORTED_FORMAT_VERSIONS
        assert 4 in SUPPORTED_FORMAT_VERSIONS

    def test_mutations_require_version_3(self):
        payload = json.loads(Workload(jobs=(streaming_job(),)).to_json())
        payload["format_version"] = 2
        with pytest.raises(
            WorkloadFormatError,
            match=r"jobs\[0\]: graph 'mutations' requires format_version >= 3",
        ):
            Workload.from_json(json.dumps(payload))

    def test_v2_files_without_mutations_still_load(self):
        payload = json.loads(
            Workload(
                jobs=(
                    JobRequest(
                        job_id="plain",
                        app="pagerank",
                        graph=GraphSpec(vertices=50),
                    ),
                )
            ).to_json()
        )
        payload["format_version"] = 2
        assert Workload.from_json(json.dumps(payload)).num_jobs == 1

    def test_round_trip_preserves_stream(self):
        workload = Workload(jobs=(streaming_job(),))
        loaded = Workload.from_json(workload.to_json())
        assert loaded.jobs[0].graph.mutations == stream_for_base()


class TestSpecValidation:
    def test_mutations_and_faults_are_exclusive(self):
        from repro.service import FaultSpec

        with pytest.raises(WorkloadFormatError, match="fault"):
            streaming_job(fault_rates=FaultSpec(crash_rate=0.5, seed=1))

    def test_unknown_vertex_rejected_at_construction(self):
        bad = MutationStream(
            batches=(MutationBatch((RemoveVertex(VERTICES + 7),)),)
        )
        with pytest.raises(
            WorkloadFormatError, match="invalid mutation stream"
        ):
            GraphSpec(vertices=VERTICES, mutations=bad)

    def test_unknown_vertex_error_names_job_index_on_load(self):
        payload = json.loads(Workload(jobs=(streaming_job(),)).to_json())
        payload["jobs"][0]["graph"]["mutations"]["batches"] = [
            [{"op": "add_edge", "src": 0, "dst": VERTICES + 9}]
        ]
        with pytest.raises(WorkloadFormatError, match=r"jobs\[0\]"):
            Workload.from_json(json.dumps(payload))

    def test_key_includes_stream_fingerprint(self):
        with_stream = GraphSpec(
            vertices=VERTICES, mutations=stream_for_base(seed=3)
        )
        other_stream = GraphSpec(
            vertices=VERTICES, mutations=stream_for_base(seed=4)
        )
        plain = GraphSpec(vertices=VERTICES)
        assert with_stream.key() != plain.key()
        assert with_stream.key() != other_stream.key()
        assert with_stream.key() == GraphSpec(
            vertices=VERTICES, mutations=stream_for_base(seed=3)
        ).key()


class TestStreamingJobs:
    def test_streaming_job_completes_fault_free(self, pair):
        result = FederationService([pair]).run_workload(
            Workload(jobs=(streaming_job(),))
        ).service_view()
        record = result.records[0]
        assert record.status == STATUS_COMPLETED
        assert record.attempts == 1
        assert record.charged_seconds > 0.0

    def test_two_runs_trace_byte_identical(self, pair):
        workload = Workload(jobs=(streaming_job(), streaming_job("s1")))

        def one_run():
            return FederationService([pair]).run_workload(
                workload
            ).service_view().trace_json()

        assert one_run() == one_run()

    def test_dataset_spec_with_bad_stream_rejected_at_admission(self, pair):
        # Dataset specs can't validate at construction (the base size is
        # only known once the graph materialises), so the reject happens
        # at the admission gate and lands in the record, not an exception.
        bad = MutationStream(
            batches=(MutationBatch((AddEdge(0, 10**6),)),)
        )
        spec = GraphSpec(dataset="wiki", scale=0.05, mutations=bad)
        job = JobRequest(job_id="d0", app="pagerank", graph=spec)
        result = FederationService([pair]).run_workload(
            Workload(jobs=(job,))
        ).service_view()
        record = result.records[0]
        assert record.status == STATUS_REJECTED
        assert record.reason.startswith("jobs[0]: invalid mutation stream")

    def test_admission_reject_locates_the_job_index(self, pair):
        # The offending job is not first in the workload: the located
        # prefix must name its position, not just repeat the error.
        bad = MutationStream(
            batches=(MutationBatch((AddEdge(0, 10**6),)),)
        )
        jobs = (
            JobRequest(
                job_id="ok", app="pagerank", graph=GraphSpec(vertices=50)
            ),
            JobRequest(
                job_id="d1",
                app="pagerank",
                graph=GraphSpec(dataset="wiki", scale=0.05, mutations=bad),
                submit_s=0.1,
            ),
        )
        result = FederationService([pair]).run_workload(
            Workload(jobs=jobs)
        ).service_view()
        by_id = {r.job_id: r for r in result.records}
        assert by_id["d1"].status == STATUS_REJECTED
        assert by_id["d1"].reason.startswith(
            "jobs[1]: invalid mutation stream"
        )

    def test_federation_admission_reject_locates_the_job_index(self):
        # Same contract through the federated admission path: the shard
        # that rejects must still name the workload position.
        bad = MutationStream(
            batches=(MutationBatch((AddEdge(0, 10**6),)),)
        )
        jobs = (
            JobRequest(
                job_id="ok", app="pagerank", graph=GraphSpec(vertices=50)
            ),
            JobRequest(
                job_id="d1",
                app="pagerank",
                graph=GraphSpec(dataset="wiki", scale=0.05, mutations=bad),
                submit_s=0.1,
            ),
        )
        clusters = [
            Cluster(
                [get_machine("m4.2xlarge"), get_machine("c4.2xlarge")],
                perf=PerformanceModel(model_scale=0.01),
            )
            for _ in range(2)
        ]
        result = FederationService(clusters).run_workload(
            Workload(jobs=jobs)
        )
        by_id = {r.job_id: r for r in result.records}
        assert by_id["d1"].status == STATUS_REJECTED
        assert by_id["d1"].reason.startswith(
            "jobs[1]: invalid mutation stream"
        )

    def test_mixed_workload_prices_both_kinds(self, pair):
        plain = JobRequest(
            job_id="p0", app="pagerank", graph=GraphSpec(vertices=VERTICES)
        )
        result = FederationService([pair]).run_workload(
            Workload(jobs=(plain, streaming_job("s0", submit_s=0.5)))
        ).service_view()
        assert [r.status for r in result.records] == [
            STATUS_COMPLETED,
            STATUS_COMPLETED,
        ]
        # The streaming job runs 4 epochs' worth of supersteps.
        by_id = {r.job_id: r for r in result.records}
        assert by_id["s0"].supersteps > by_id["p0"].supersteps


def _pair() -> Cluster:
    return Cluster(
        [get_machine("m4.2xlarge"), get_machine("c4.2xlarge")],
        perf=PerformanceModel(model_scale=0.01),
    )


def _charge(job, interval):
    """(job record, the stream's outcome) of one single-job replay."""
    outcomes = []
    run_resilient = StreamingSystem.run_resilient

    def spy(self, *args, **kwargs):
        outcomes.append(run_resilient(self, *args, **kwargs))
        return outcomes[-1]

    service = FederationService(
        [_pair()], stream_checkpoint=CheckpointPolicy(interval=interval)
    )
    with mock.patch.object(StreamingSystem, "run_resilient", spy):
        record = service.run_workload(Workload(jobs=(job,))).records[0]
    (outcome,) = outcomes
    return record, outcome


class TestStreamBillConservation:
    """A stream job is charged its undisturbed runtime plus its bill."""

    @pytest.fixture(scope="class")
    def undisturbed(self):
        record, outcome = _charge(streaming_job(), interval=1)
        assert outcome.recovery.overhead_seconds == 0.0
        return record.charged_seconds

    @settings(max_examples=12, deadline=None)
    @given(
        epoch=st.integers(0, 3),
        repeats=st.integers(1, 2),
        interval=st.integers(0, 3),
    )
    def test_charged_is_runtime_plus_overhead(
        self, undisturbed, epoch, repeats, interval
    ):
        faults = FaultSchedule(
            crashes=(CrashFault(superstep=epoch, machine=0, repeats=repeats),)
        )
        record, outcome = _charge(streaming_job(faults=faults), interval)
        bill = outcome.recovery
        assert record.status == STATUS_COMPLETED
        assert record.crashes == bill.crashes == repeats
        assert outcome.result.total_runtime_seconds == undisturbed
        assert record.charged_seconds == pytest.approx(
            undisturbed + bill.overhead_seconds, rel=1e-12
        )
        assert record.retries_backoff_s == bill.backoff_seconds


class TestServeCli:
    def test_serve_replays_streaming_workload(self, tmp_path, capsys):
        path = str(tmp_path / "wl.json")
        Workload(jobs=(streaming_job(),), seed=1).save(path)
        code = main(["serve", "--cluster", "m4.2xlarge,c4.2xlarge",
                     "--workload", path, "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["jobs_submitted"] == 1
        assert summary["jobs_completed"] == 1
        assert summary["jobs_rejected"] == 0

    def test_serve_rejects_bad_stream_with_exit_2(self, tmp_path, capsys):
        payload = json.loads(Workload(jobs=(streaming_job(),)).to_json())
        payload["jobs"][0]["graph"]["mutations"]["batches"] = [
            [{"op": "remove_vertex", "vertex": VERTICES + 1}]
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code = main(["serve", "--cluster", "m4.2xlarge,c4.2xlarge",
                     "--workload", str(path)])
        assert code == 2
        assert "jobs[0]" in capsys.readouterr().err
