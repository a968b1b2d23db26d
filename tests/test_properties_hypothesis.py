"""Property-based tests (hypothesis) on core invariants.

These sweep randomised inputs over the load-bearing data structures and
algorithms: the graph container, the power-law machinery (Eq. 3-7), the
hash/partition layer, the CCR metric (Eq. 1) and the work-profile algebra.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.perfmodel import PerformanceModel, WorkProfile
from repro.core.ccr import ccr_from_times
from repro.graph.digraph import DiGraph
from repro.partition import RandomHashPartitioner, normalize_weights
from repro.powerlaw.alpha_solver import expected_degree, solve_alpha
from repro.powerlaw.distribution import PowerLawDistribution
from repro.powerlaw.generator import generate_power_law_graph
from repro.utils.rng import hash_edges, hash_to_unit, mix64

# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #

alphas = st.floats(min_value=1.2, max_value=3.5, allow_nan=False)
small_ints = st.integers(min_value=2, max_value=400)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    m = draw(st.integers(min_value=0, max_value=200))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


# ---------------------------------------------------------------------- #
# Graph container
# ---------------------------------------------------------------------- #


class TestDiGraphProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_degree_sums_equal_edge_count(self, data):
        n, src, dst = data
        g = DiGraph(n, src, dst)
        assert g.out_degrees.sum() == g.num_edges
        assert g.in_degrees.sum() == g.num_edges
        assert g.degrees.sum() == 2 * g.num_edges

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_reverse_preserves_edge_multiset(self, data):
        n, src, dst = data
        g = DiGraph(n, src, dst)
        r = g.reverse()
        fwd = sorted(zip(src.tolist(), dst.tolist()))
        back = sorted(zip(r.dst.tolist(), r.src.tolist()))
        assert fwd == back

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_deduplicate_idempotent(self, data):
        n, src, dst = data
        d1 = DiGraph(n, src, dst).deduplicate()
        d2 = d1.deduplicate()
        assert d1 == d2


# ---------------------------------------------------------------------- #
# Power law (Eq. 3-7)
# ---------------------------------------------------------------------- #


class TestPowerLawProperties:
    @given(alphas, st.integers(min_value=2, max_value=5000))
    @settings(max_examples=60, deadline=None)
    def test_pmf_normalised_and_decreasing(self, alpha, d):
        dist = PowerLawDistribution(alpha, d)
        assert dist.pmf.sum() == pytest.approx(1.0)
        assert np.all(np.diff(dist.pmf) <= 0)

    @given(alphas, st.integers(min_value=2, max_value=5000))
    @settings(max_examples=60, deadline=None)
    def test_mean_within_support(self, alpha, d):
        dist = PowerLawDistribution(alpha, d)
        assert 1.0 <= dist.mean <= d

    @given(alphas, st.integers(min_value=10, max_value=3000))
    @settings(max_examples=40, deadline=None)
    def test_alpha_solver_roundtrip(self, alpha, d):
        """solve_alpha inverts expected_degree across the whole domain."""
        target = expected_degree(alpha, d)
        recovered = solve_alpha(target, d)
        assert recovered == pytest.approx(alpha, abs=1e-4)

    @given(st.integers(min_value=2, max_value=300), alphas,
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_generator_valid_graph(self, n, alpha, seed):
        g = generate_power_law_graph(n, alpha, seed=seed)
        src, dst = g.edges()
        assert not np.any(src == dst)  # no self loops
        assert g.out_degrees.min() >= 1  # every vertex emits
        assert src.min(initial=0) >= 0 and dst.max(initial=0) < n


# ---------------------------------------------------------------------- #
# Hashing and partitioning
# ---------------------------------------------------------------------- #


class TestHashProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2**62), min_size=1,
                    max_size=200), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_mix64_deterministic_pure(self, values, seed):
        x = np.array(values, dtype=np.int64)
        assert np.array_equal(mix64(x, seed=seed), mix64(x, seed=seed))

    @given(st.integers(0, 2**31), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_unit_interval(self, u, v):
        h = hash_edges(np.array([u]), np.array([v]))
        x = hash_to_unit(h)[0]
        assert 0.0 <= x < 1.0


class TestPartitionProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.floats(min_value=0.05, max_value=10.0), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_hash_total_and_range(self, extra, weights, seed):
        m = len(weights)
        g = generate_power_law_graph(200 + extra, 2.0, seed=seed % 1000)
        r = RandomHashPartitioner(seed=seed).partition(g, m, weights=weights)
        assert r.assignment.size == g.num_edges
        if g.num_edges:
            assert 0 <= r.assignment.min() and r.assignment.max() < m

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0),
                    min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_normalize_weights_sums_to_one(self, weights):
        w = normalize_weights(weights, len(weights))
        assert w.sum() == pytest.approx(1.0)
        assert np.all(w > 0)


# ---------------------------------------------------------------------- #
# CCR (Eq. 1)
# ---------------------------------------------------------------------- #


class TestCcrProperties:
    @given(st.dictionaries(st.text(min_size=1, max_size=6),
                           st.floats(min_value=1e-3, max_value=1e3),
                           min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_eq1_invariants(self, times):
        ccr = ccr_from_times(times)
        values = list(ccr.values())
        # slowest machine anchors at exactly 1; everyone else >= 1
        assert min(values) == pytest.approx(1.0)
        assert all(v >= 1.0 - 1e-12 for v in values)

    @given(st.dictionaries(st.text(min_size=1, max_size=6),
                           st.floats(min_value=1e-3, max_value=1e3),
                           min_size=1, max_size=8),
           st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_graph_size_invariance(self, times, factor):
        """Graph size only scales runtimes, never the ratios (Sec. II-A)."""
        scaled = {k: v * factor for k, v in times.items()}
        a, b = ccr_from_times(times), ccr_from_times(scaled)
        for k in times:
            assert a[k] == pytest.approx(b[k], rel=1e-9)


# ---------------------------------------------------------------------- #
# Work-profile algebra and the machine model
# ---------------------------------------------------------------------- #

profiles = st.builds(
    WorkProfile,
    flops=st.floats(min_value=0, max_value=1e12),
    serial_flops=st.floats(min_value=0, max_value=1e9),
    streaming_bytes=st.floats(min_value=0, max_value=1e12),
    cacheable_bytes=st.floats(min_value=0, max_value=1e12),
    working_set_mb=st.floats(min_value=0, max_value=1e4),
)


class TestWorkProfileProperties:
    @given(profiles, profiles)
    @settings(max_examples=60, deadline=None)
    def test_addition_commutative(self, a, b):
        assert (a + b) == (b + a)

    @given(profiles, profiles, profiles)
    @settings(max_examples=40, deadline=None)
    def test_addition_associative_in_extensives(self, a, b, c):
        x = (a + b) + c
        y = a + (b + c)
        assert x.flops == pytest.approx(y.flops)
        assert x.streaming_bytes == pytest.approx(y.streaming_bytes)
        assert x.working_set_mb == y.working_set_mb

    @given(profiles)
    @settings(max_examples=60, deadline=None)
    def test_time_monotone_in_threads(self, work):
        from repro.cluster.machine import MachineSpec

        pm = PerformanceModel()
        few = MachineSpec("m", hw_threads=4, freq_ghz=2.0)  # 2 compute
        many = MachineSpec("m", hw_threads=34, freq_ghz=2.0)  # 32 compute
        t_few = pm.execution_time(few, work)
        t_many = pm.execution_time(many, work)
        assert t_many <= t_few + 1e-12

    @given(profiles, st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_scaled_linear(self, work, factor):
        s = work.scaled(factor)
        assert s.flops == pytest.approx(work.flops * factor)
        assert s.cacheable_bytes == pytest.approx(work.cacheable_bytes * factor)
