"""Unit tests for repro.engine.trace and repro.engine.report."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineSpec
from repro.cluster.network import NetworkModel
from repro.cluster.perfmodel import PerformanceModel, WorkProfile
from repro.engine.report import simulate_execution
from repro.engine.trace import ExecutionTrace, MachinePhase, SuperstepTrace
from repro.errors import EngineError
from repro.utils.canonical import jsonable
from tests.oracle.trace import reference_jsonable


def phase(flops=1e6, comm=0.0):
    return MachinePhase(work=WorkProfile(flops=flops), comm_bytes=comm)


def two_machine_cluster(slow_ghz=1.0, fast_ghz=2.0):
    # hw_threads=6 -> 4 compute threads after the communication reserve.
    slow = MachineSpec("slow", hw_threads=6, freq_ghz=slow_ghz,
                       idle_watts=10, dyn_watts_per_thread=5)
    fast = MachineSpec("fast", hw_threads=6, freq_ghz=fast_ghz,
                       idle_watts=10, dyn_watts_per_thread=5)
    return Cluster([slow, fast], perf=PerformanceModel(efficiency_decay=0.0))


#: Numeric arrays of every kind a result carries, up to 2-D.
numeric_arrays_st = hnp.arrays(
    dtype=st.sampled_from(
        [np.float64, np.float32, np.int64, np.int32, np.bool_]
    ),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
)

#: Leaves an object array may hold: numpy scalars and small containers.
object_leaves_st = st.one_of(
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.booleans().map(np.bool_),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(-5, 5).map(np.int64), max_size=3),
    st.dictionaries(
        st.integers(0, 9), st.floats(allow_nan=False), max_size=3
    ),
)


def _object_array(values):
    arr = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        arr[i] = v
    return arr


class TestJsonable:
    def test_zero_d_arrays_become_scalars(self):
        assert jsonable(np.array(2.5)) == 2.5
        assert type(jsonable(np.array(2.5))) is float
        assert jsonable(np.array(7, dtype=np.int64)) == 7
        assert jsonable(np.array(True)) is True
        assert jsonable({"total": np.array(3)}) == {"total": 3}

    def test_trace_with_zero_d_result_serializes(self):
        t = ExecutionTrace(
            app="x", num_machines=1, result={"total": np.array(2.5)}
        )
        t.append(SuperstepTrace(phases=[phase()]))
        assert json.loads(t.canonical_json())["result"] == {"total": 2.5}

    @given(numeric_arrays_st)
    @settings(max_examples=60, deadline=None)
    def test_numeric_arrays_match_reference(self, arr):
        ours, ref = jsonable({"a": arr}), reference_jsonable({"a": arr})
        # repr pins leaf types (1 vs 1.0 vs True) and spells NaN alike.
        assert repr(ours) == repr(ref)
        assert json.dumps(ours) == json.dumps(ref)

    @given(st.lists(object_leaves_st, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_object_arrays_match_reference(self, values):
        arr = _object_array(values)
        assert repr(jsonable(arr)) == repr(reference_jsonable(arr))
        grid = _object_array(values).reshape(1, -1)
        assert repr(jsonable(grid)) == repr(reference_jsonable(grid))


class TestTrace:
    def test_append_and_counts(self):
        t = ExecutionTrace(app="x", num_machines=2)
        t.append(SuperstepTrace(phases=[phase(), phase()]))
        assert t.num_supersteps == 1

    def test_machine_count_mismatch(self):
        t = ExecutionTrace(app="x", num_machines=2)
        with pytest.raises(EngineError):
            t.append(SuperstepTrace(phases=[phase()]))

    def test_total_work_aggregates(self):
        t = ExecutionTrace(app="x", num_machines=1)
        t.append(SuperstepTrace(phases=[phase(flops=1.0)]))
        t.append(SuperstepTrace(phases=[phase(flops=2.0)]))
        assert t.total_work()[0].flops == pytest.approx(3.0)

    def test_total_comm_bytes(self):
        t = ExecutionTrace(app="x", num_machines=1)
        t.append(SuperstepTrace(phases=[phase(comm=5.0)]))
        assert t.total_comm_bytes() == 5.0

    def test_empty_superstep_rejected(self):
        with pytest.raises(EngineError):
            SuperstepTrace(phases=[])

    def test_negative_comm_rejected(self):
        with pytest.raises(EngineError):
            MachinePhase(work=WorkProfile(), comm_bytes=-1)


class TestSimulateExecution:
    def test_barrier_is_slowest_machine(self):
        """The superstep ends when the straggler finishes."""
        cluster = two_machine_cluster()
        t = ExecutionTrace(app="x", num_machines=2)
        t.append(SuperstepTrace(phases=[phase(flops=1e9), phase(flops=1e9)]))
        report = simulate_execution(t, cluster)
        slow_busy = report.machines[0].busy_seconds
        fast_busy = report.machines[1].busy_seconds
        assert slow_busy > fast_busy
        assert report.runtime_seconds == pytest.approx(slow_busy)

    def test_runtime_sums_supersteps(self):
        cluster = two_machine_cluster()
        t = ExecutionTrace(app="x", num_machines=2)
        step = SuperstepTrace(phases=[phase(flops=1e9), phase(flops=1e9)])
        t.append(step)
        one = simulate_execution(t, cluster).runtime_seconds
        t.append(step)
        two = simulate_execution(t, cluster).runtime_seconds
        assert two == pytest.approx(2 * one)

    def test_idle_machine_burns_energy_at_barrier(self):
        cluster = two_machine_cluster()
        t = ExecutionTrace(app="x", num_machines=2)
        t.append(SuperstepTrace(phases=[phase(flops=1e9), phase(flops=0)]))
        report = simulate_execution(t, cluster)
        fast = report.machines[1]
        assert fast.busy_seconds == 0.0
        assert fast.energy_joules > 0.0  # idle power over the wall time

    def test_balanced_load_less_energy_than_straggler(self):
        cluster = two_machine_cluster(slow_ghz=1.0, fast_ghz=1.0)
        skew = ExecutionTrace(app="x", num_machines=2)
        skew.append(SuperstepTrace(phases=[phase(flops=2e9), phase(flops=0)]))
        balanced = ExecutionTrace(app="x", num_machines=2)
        balanced.append(SuperstepTrace(phases=[phase(flops=1e9), phase(flops=1e9)]))
        e_skew = simulate_execution(skew, cluster).energy_joules
        e_bal = simulate_execution(balanced, cluster).energy_joules
        assert e_bal < e_skew

    def test_comm_overlapped_with_compute(self):
        """Communication only matters when it exceeds computation."""
        net = NetworkModel(bandwidth_gbs=1.0, latency_s=0.0)
        slow = MachineSpec("slow", hw_threads=3, freq_ghz=1.0)  # 1 thread
        cluster = Cluster([slow, slow], network=net,
                          perf=PerformanceModel(efficiency_decay=0.0))
        t = ExecutionTrace(app="x", num_machines=2)
        t.append(SuperstepTrace(phases=[phase(flops=1e9, comm=1e9),
                                        phase(flops=1e9, comm=1e9)]))
        report = simulate_execution(t, cluster)
        # compute = 1 s, comm = 1 s at 1 GB/s: overlap keeps wall at 1 s.
        assert report.runtime_seconds == pytest.approx(1.0)

    def test_comm_dominates_when_larger(self):
        net = NetworkModel(bandwidth_gbs=1.0, latency_s=0.0)
        slow = MachineSpec("slow", hw_threads=3, freq_ghz=1.0)
        cluster = Cluster([slow, slow], network=net)
        t = ExecutionTrace(app="x", num_machines=2)
        t.append(SuperstepTrace(phases=[phase(flops=0, comm=3e9),
                                        phase(flops=0, comm=3e9)]))
        assert simulate_execution(t, cluster).runtime_seconds == pytest.approx(3.0)

    def test_single_machine_skips_network(self):
        net = NetworkModel(bandwidth_gbs=1.0, latency_s=10.0)
        solo = Cluster([MachineSpec("m", hw_threads=3, freq_ghz=1.0)], network=net)
        t = ExecutionTrace(app="x", num_machines=1)
        t.append(SuperstepTrace(phases=[phase(flops=1e9, comm=1e9)], sync_rounds=4))
        report = simulate_execution(t, solo)
        assert report.machines[0].comm_seconds == 0.0

    def test_machine_count_mismatch(self):
        t = ExecutionTrace(app="x", num_machines=3)
        with pytest.raises(EngineError):
            simulate_execution(t, two_machine_cluster())

    def test_straggler_name(self):
        cluster = two_machine_cluster()
        t = ExecutionTrace(app="x", num_machines=2)
        t.append(SuperstepTrace(phases=[phase(flops=1e9), phase(flops=1e9)]))
        assert simulate_execution(t, cluster).straggler == "slow"

    def test_utilization_bounds(self):
        cluster = two_machine_cluster()
        t = ExecutionTrace(app="x", num_machines=2)
        t.append(SuperstepTrace(phases=[phase(flops=1e9), phase(flops=1e9)]))
        for m in simulate_execution(t, cluster).machines:
            assert 0.0 <= m.utilization <= 1.0

    def test_cost_usd(self):
        from repro.cluster.catalog import get_machine

        cluster = Cluster([get_machine("c4.xlarge")])
        t = ExecutionTrace(app="x", num_machines=1)
        t.append(SuperstepTrace(phases=[phase(flops=2.9e9 * 2 * 3600)]))
        report = simulate_execution(t, cluster)
        # Roughly an hour of compute on 2 threads at 2.9 GHz.
        assert report.cost_usd(cluster) == pytest.approx(0.209, rel=0.05)
