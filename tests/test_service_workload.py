"""Unit tests for repro.service workload specs, JSON format and generator."""

import json

import pytest

from repro.errors import ServiceError, WorkloadFormatError
from repro.faults.schedule import CrashFault, FaultSchedule
from repro.service import (
    FaultSpec,
    GraphSpec,
    JobRequest,
    Workload,
    generate_workload,
)


GRAPH = GraphSpec(vertices=300, alpha=2.1, seed=0)


class TestGraphSpec:
    def test_requires_dataset_or_vertices(self):
        with pytest.raises(WorkloadFormatError):
            GraphSpec()

    def test_rejects_both_dataset_and_vertices(self):
        with pytest.raises(WorkloadFormatError):
            GraphSpec(dataset="wiki", vertices=100)

    def test_round_trip(self):
        spec = GraphSpec(vertices=500, alpha=1.9, seed=3)
        assert GraphSpec.from_jsonable(spec.to_jsonable()) == spec

    def test_load_is_deterministic(self):
        a = GraphSpec(vertices=200, seed=1).load()
        b = GraphSpec(vertices=200, seed=1).load()
        assert a.num_vertices == b.num_vertices
        assert a.num_edges == b.num_edges


class TestJobRequest:
    def test_rejects_empty_job_id(self):
        with pytest.raises(WorkloadFormatError, match="job_id"):
            JobRequest(job_id="", app="pagerank", graph=GRAPH)

    def test_rejects_negative_submit(self):
        with pytest.raises(WorkloadFormatError, match="submit_s"):
            JobRequest(job_id="j", app="pagerank", graph=GRAPH, submit_s=-1.0)

    def test_rejects_non_positive_deadline(self):
        with pytest.raises(WorkloadFormatError, match="deadline_s"):
            JobRequest(job_id="j", app="pagerank", graph=GRAPH, deadline_s=0.0)

    def test_rejects_faults_and_fault_rates_together(self):
        with pytest.raises(WorkloadFormatError, match="not both"):
            JobRequest(
                job_id="j", app="pagerank", graph=GRAPH,
                faults=FaultSchedule(crashes=(CrashFault(1, 0),)),
                fault_rates=FaultSpec(crash_rate=0.1, seed=1),
            )

    def test_absolute_deadline(self):
        job = JobRequest(job_id="j", app="pagerank", graph=GRAPH,
                         submit_s=2.0, deadline_s=0.5)
        assert job.absolute_deadline_s == 2.5
        bare = JobRequest(job_id="k", app="pagerank", graph=GRAPH)
        assert bare.absolute_deadline_s is None

    def test_explicit_faults_replayed_every_attempt(self):
        sched = FaultSchedule(crashes=(CrashFault(1, 0),), seed=4)
        job = JobRequest(job_id="j", app="pagerank", graph=GRAPH,
                         faults=sched)
        assert job.schedule_for(2, attempt=0) == sched
        assert job.schedule_for(2, attempt=1) == sched

    def test_fault_rates_vary_per_attempt(self):
        job = JobRequest(
            job_id="j", app="pagerank", graph=GRAPH,
            fault_rates=FaultSpec(crash_rate=0.5, seed=7),
        )
        first = job.schedule_for(2, attempt=0)
        again = job.schedule_for(2, attempt=0)
        second = job.schedule_for(2, attempt=1)
        assert first == again
        assert first != second

    def test_unknown_field_rejected(self):
        payload = JobRequest(job_id="j", app="pagerank",
                             graph=GRAPH).to_jsonable()
        payload["bogus"] = 1
        with pytest.raises(WorkloadFormatError, match="bogus"):
            JobRequest.from_jsonable(payload)

    def test_missing_required_field_rejected(self):
        with pytest.raises(WorkloadFormatError, match="app"):
            JobRequest.from_jsonable({"job_id": "j", "graph": GRAPH.to_jsonable()})

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("app", "x", "unknown app 'x'"),
            ("app", None, "'app' must be a string"),
            ("app", 1, "'app' must be a string"),
            ("partitioner", "x", "unknown partitioner 'x'"),
            ("partitioner", None, "'partitioner' must be a string"),
            ("job_id", None, "'job_id' must be a string"),
            ("job_id", 7, "'job_id' must be a string"),
        ],
    )
    def test_bad_name_fields_rejected(self, field, value, match):
        payload = JobRequest(job_id="j", app="pagerank",
                             graph=GRAPH).to_jsonable()
        payload[field] = value
        with pytest.raises(WorkloadFormatError, match=match):
            JobRequest.from_jsonable(payload)

    def test_bad_app_names_its_job_in_a_workload(self):
        payload = json.loads(Workload(jobs=(JobRequest(
            job_id="j", app="pagerank", graph=GRAPH),)).to_json())
        payload["jobs"][0]["app"] = None
        with pytest.raises(WorkloadFormatError, match="jobs\\[0\\]"):
            Workload.from_json(json.dumps(payload))


class TestWorkloadFormat:
    def make_workload(self):
        jobs = (
            JobRequest(job_id="b", app="pagerank", graph=GRAPH, submit_s=1.0),
            JobRequest(job_id="a", app="connected_components", graph=GRAPH,
                       submit_s=1.0, priority=2, deadline_s=0.5),
            JobRequest(
                job_id="c", app="pagerank", graph=GRAPH, submit_s=0.5,
                faults=FaultSchedule(crashes=(CrashFault(1, 0),), seed=9),
            ),
        )
        return Workload(jobs=jobs, seed=5)

    def test_round_trip_identity(self):
        workload = self.make_workload()
        assert Workload.from_json(workload.to_json()) == workload

    def test_sorted_jobs_by_submit_then_id(self):
        ids = [j.job_id for j in self.make_workload().sorted_jobs()]
        assert ids == ["c", "a", "b"]

    def test_duplicate_job_ids_rejected(self):
        job = JobRequest(job_id="dup", app="pagerank", graph=GRAPH)
        with pytest.raises(WorkloadFormatError, match="jobs\\[1\\]"):
            Workload(jobs=(job, job))

    def test_save_load(self, tmp_path):
        workload = self.make_workload()
        path = str(tmp_path / "wl.json")
        workload.save(path)
        assert Workload.load(path) == workload

    def test_bad_record_error_points_at_index(self):
        workload = self.make_workload()
        payload = json.loads(workload.to_json())
        payload["jobs"][2]["deadline_s"] = -1.0
        with pytest.raises(WorkloadFormatError, match="jobs\\[2\\]"):
            Workload.from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "block, field, value",
        [
            ("fault_rates", "crash_rate", "x"),
            ("fault_rates", "horizon", 2.5),
            ("fault_rates", "seed", "s"),
            ("graph", "seed", "s"),
        ],
    )
    def test_wrong_typed_field_rejected(self, block, field, value):
        job = JobRequest(job_id="j", app="pagerank", graph=GRAPH,
                         fault_rates=FaultSpec(crash_rate=0.1, seed=1))
        payload = json.loads(Workload(jobs=(job,)).to_json())
        payload["jobs"][0][block][field] = value
        with pytest.raises(
            WorkloadFormatError, match=f"jobs\\[0\\]: .*{field} must be"
        ):
            Workload.from_json(json.dumps(payload))

    def test_non_object_rejected(self):
        with pytest.raises(WorkloadFormatError):
            Workload.from_json("[1, 2]")

    def test_malformed_json_rejected(self):
        with pytest.raises(WorkloadFormatError):
            Workload.from_json('{"jobs": [')


class TestGenerator:
    def test_same_seed_same_workload(self):
        a = generate_workload(20, seed=3, deadline_fraction=0.3,
                              fault_fraction=0.2)
        b = generate_workload(20, seed=3, deadline_fraction=0.3,
                              fault_fraction=0.2)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        a = generate_workload(20, seed=3)
        b = generate_workload(20, seed=4)
        assert a != b

    def test_submit_times_nondecreasing(self):
        workload = generate_workload(30, seed=1, mean_interarrival_s=0.01)
        times = [j.submit_s for j in workload.jobs]
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)

    def test_deadline_fraction_and_bounds(self):
        workload = generate_workload(
            40, seed=2, deadline_fraction=0.5,
            deadline_min_s=0.01, deadline_max_s=0.02,
        )
        with_deadline = [j for j in workload.jobs if j.deadline_s is not None]
        assert 0 < len(with_deadline) < 40
        assert all(0.01 <= j.deadline_s <= 0.02 for j in with_deadline)

    def test_hot_jobs_carry_explicit_crashes(self):
        workload = generate_workload(
            20, seed=5, hot_machine=1, hot_fraction=0.3, hot_repeats=2,
        )
        hot = [j for j in workload.jobs if j.faults is not None]
        assert hot
        for job in hot:
            assert all(c.machine == 1 and c.repeats == 2
                       for c in job.faults.crashes)

    def test_generator_validation(self):
        with pytest.raises(ServiceError, match="num_jobs"):
            generate_workload(0)
        with pytest.raises(ServiceError, match="mean_interarrival_s"):
            generate_workload(5, mean_interarrival_s=0.0)
        with pytest.raises(ServiceError, match="priorities"):
            generate_workload(5, priorities=0)
        with pytest.raises(ServiceError, match="deadline_fraction"):
            generate_workload(5, deadline_fraction=1.5)

    def test_generated_workload_round_trips(self):
        workload = generate_workload(
            15, seed=6, deadline_fraction=0.4, fault_fraction=0.3,
            hot_machine=0, hot_fraction=0.2,
        )
        assert Workload.from_json(workload.to_json()) == workload
