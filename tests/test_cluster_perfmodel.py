"""Unit tests for repro.cluster.perfmodel."""

import pytest

from repro.cluster.machine import MachineSpec
from repro.cluster.perfmodel import PerformanceModel, WorkProfile
from repro.errors import ClusterError


def machine(**kw):
    defaults = dict(hw_threads=10, freq_ghz=2.0, mem_bw_gbs=10.0, llc_mb=10.0)
    defaults.update(kw)
    return MachineSpec("test", **defaults)


class TestWorkProfile:
    def test_addition(self):
        a = WorkProfile(flops=1, serial_flops=2, streaming_bytes=3,
                        cacheable_bytes=4, working_set_mb=5)
        b = WorkProfile(flops=10, serial_flops=20, streaming_bytes=30,
                        cacheable_bytes=40, working_set_mb=2)
        c = a + b
        assert c.flops == 11 and c.serial_flops == 22
        assert c.streaming_bytes == 33 and c.cacheable_bytes == 44
        # Working set is intensive: combining keeps the maximum.
        assert c.working_set_mb == 5

    def test_scaled(self):
        w = WorkProfile(flops=2, serial_flops=4, streaming_bytes=6,
                        cacheable_bytes=8, working_set_mb=3)
        s = w.scaled(0.5)
        assert s.flops == 1 and s.cacheable_bytes == 4
        assert s.working_set_mb == 3  # intensive, untouched

    def test_total_flops(self):
        assert WorkProfile(flops=3, serial_flops=2).total_flops == 5

    def test_negative_rejected(self):
        with pytest.raises(ClusterError):
            WorkProfile(flops=-1)

    def test_negative_scale_rejected(self):
        with pytest.raises(ClusterError):
            WorkProfile().scaled(-1)


class TestParallelEfficiency:
    def test_single_thread_perfect(self):
        assert PerformanceModel().parallel_efficiency(1) == 1.0

    def test_decays_with_threads(self):
        pm = PerformanceModel()
        assert pm.parallel_efficiency(34) < pm.parallel_efficiency(2)

    def test_zero_decay(self):
        pm = PerformanceModel(efficiency_decay=0.0)
        assert pm.parallel_efficiency(64) == 1.0

    def test_invalid_threads(self):
        with pytest.raises(ClusterError):
            PerformanceModel().parallel_efficiency(0)


class TestMissRate:
    def test_fits_hits_floor(self):
        pm = PerformanceModel(min_miss_rate=0.3)
        assert pm.miss_rate(machine(llc_mb=100), 1.0) == 0.3

    def test_no_fit_misses(self):
        pm = PerformanceModel(min_miss_rate=0.1)
        assert pm.miss_rate(machine(llc_mb=1), 100.0) == pytest.approx(0.99)

    def test_zero_working_set(self):
        pm = PerformanceModel(min_miss_rate=0.2)
        assert pm.miss_rate(machine(), 0.0) == 0.2

    def test_model_scale_shrinks_effective_llc(self):
        """Cache-fit ratios are invariant when graph and LLC shrink together."""
        full = PerformanceModel(model_scale=1.0)
        scaled = PerformanceModel(model_scale=0.01)
        m = machine(llc_mb=10)
        assert scaled.miss_rate(m, 1.0) == pytest.approx(full.miss_rate(m, 100.0))


class TestExecutionTime:
    def test_pure_compute_scales_with_threads(self):
        pm = PerformanceModel(efficiency_decay=0.0)
        w = WorkProfile(flops=1e9)
        t2 = pm.execution_time(machine(hw_threads=4), w)  # 2 compute threads
        t8 = pm.execution_time(machine(hw_threads=10), w)  # 8 compute threads
        assert t2 / t8 == pytest.approx(4.0)

    def test_serial_ignores_threads(self):
        pm = PerformanceModel()
        w = WorkProfile(serial_flops=1e9)
        t1 = pm.execution_time(machine(hw_threads=3), w)  # 1 compute thread
        t8 = pm.execution_time(machine(hw_threads=10), w)  # 8 compute threads
        assert t1 == pytest.approx(t8)

    def test_memory_term_uses_bandwidth(self):
        pm = PerformanceModel()
        w = WorkProfile(streaming_bytes=10e9)
        assert pm.execution_time(machine(mem_bw_gbs=10), w) == pytest.approx(1.0)

    def test_cacheable_cheaper_when_resident(self):
        pm = PerformanceModel(min_miss_rate=0.1)
        w = WorkProfile(cacheable_bytes=1e9, working_set_mb=5.0)
        big = machine(llc_mb=50)
        small = machine(llc_mb=0.5)
        assert pm.execution_time(big, w) < pm.execution_time(small, w)

    def test_faster_clock_faster_compute(self):
        pm = PerformanceModel()
        w = WorkProfile(flops=1e9)
        assert pm.execution_time(machine(freq_ghz=4.0), w) < pm.execution_time(
            machine(freq_ghz=2.0), w
        )

    def test_default_threads_are_compute_threads(self):
        pm = PerformanceModel(efficiency_decay=0.0)
        w = WorkProfile(flops=1e9)
        m = machine(hw_threads=10)  # 8 compute threads
        core_rate = m.freq_ghz * m.ipc * 1e9
        assert pm.execution_time(m, w) == pytest.approx(1e9 / (8 * core_rate))

    def test_zero_work_zero_time(self):
        assert PerformanceModel().execution_time(machine(), WorkProfile()) == 0.0


class TestThroughput:
    def test_positive(self):
        pm = PerformanceModel()
        w = WorkProfile(flops=1e6, streaming_bytes=1e6)
        assert pm.throughput(machine(), w) > 0

    def test_zero_time_raises(self):
        with pytest.raises(ClusterError):
            PerformanceModel().throughput(machine(), WorkProfile())


class TestValidation:
    @pytest.mark.parametrize("kw", [
        {"model_scale": 0.0},
        {"model_scale": 1.5},
        {"efficiency_decay": -0.1},
        {"min_miss_rate": 1.5},
    ])
    def test_bad_params(self, kw):
        with pytest.raises(ClusterError):
            PerformanceModel(**kw)
