"""Property tests (hypothesis) for the store's cache-key model.

The store's content addressing inherits the kernel cache keys: graph
identity is the sha256 content fingerprint, cluster identity is the full
``cluster_key`` tuple, and strategy/seed components sit in the
key text verbatim.  Two properties carry the no-cross-leakage contract
(extending tests/test_kernels_cache_observer.py):

* **stability** — graphs with identical content (however constructed or
  relabeled to the same canonical arrays) produce identical fingerprints
  and therefore identical key texts and key hashes;
* **divergence** — keys differ whenever any of cluster, strategy, seed
  or weights differ, so a warm store can never serve a row across those
  boundaries.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineSpec
from repro.cluster.perfmodel import PerformanceModel
from repro.graph.digraph import DiGraph
from repro.kernels.cache import cluster_key, graph_fingerprint, machine_key
from repro.store.store import key_sha

# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=0, max_value=120))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return n, src, dst


machine_specs = st.builds(
    MachineSpec,
    st.sampled_from(("a", "b", "c")),
    hw_threads=st.integers(min_value=1, max_value=32),
    freq_ghz=st.floats(min_value=0.5, max_value=4.5, allow_nan=False),
    mem_bw_gbs=st.floats(min_value=1.0, max_value=64.0, allow_nan=False),
    llc_mb=st.floats(min_value=0.5, max_value=64.0, allow_nan=False),
)


def _estimate_key(app, graph, cluster):
    """The key shape service.estimate uses for projected runtimes."""
    return (app, graph_fingerprint(graph), cluster_key(cluster))


def _assignment_key(name, config, graph, num_machines, weights):
    """The key shape partition.base uses for assignments."""
    return (
        "assignment", name, config, graph_fingerprint(graph),
        num_machines, weights.tobytes(),
    )


# ---------------------------------------------------------------------- #
# Stability
# ---------------------------------------------------------------------- #


class TestKeyStability:
    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_content_equal_graphs_share_fingerprint(self, data):
        """Two independently built graphs with the same canonical edge
        arrays fingerprint identically — and so do their keys."""
        n, src, dst = data
        g1 = DiGraph(n, np.array(src, np.int64), np.array(dst, np.int64))
        g2 = DiGraph.from_edges(list(zip(src, dst)), num_vertices=n)
        assert graph_fingerprint(g1) == graph_fingerprint(g2)
        cluster = Cluster([MachineSpec("m", 4, 2.0, 8.0, 4.0)])
        k1, k2 = (
            _estimate_key("pagerank", g, cluster) for g in (g1, g2)
        )
        assert repr(k1) == repr(k2)
        assert key_sha(repr(k1)) == key_sha(repr(k2))

    @given(edge_lists(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_vertex_relabeling_preserving_arrays_is_stable(self, data, seed):
        """A relabeling π applied to both endpoints *and* undone again
        reproduces the same content, hence the same fingerprint."""
        n, src, dst = data
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n, dtype=np.int64)
        src_a = np.array(src, np.int64)
        dst_a = np.array(dst, np.int64)
        round_tripped = DiGraph(n, inv[perm[src_a]], inv[perm[dst_a]])
        assert graph_fingerprint(round_tripped) == graph_fingerprint(
            DiGraph(n, src_a, dst_a)
        )

    @given(machine_specs)
    @settings(max_examples=40, deadline=None)
    def test_machine_key_is_value_based(self, spec):
        import dataclasses

        clone = dataclasses.replace(spec)
        assert spec is not clone
        assert machine_key(spec) == machine_key(clone)
        assert repr(machine_key(spec)) == repr(machine_key(clone))

    def test_machine_key_is_the_astuple_form(self):
        """Estimate and store keys were written with ``astuple``: every
        catalog machine must keep exactly that key."""
        import dataclasses

        from repro.cluster.catalog import CATALOG

        for spec in CATALOG.values():
            key = machine_key(spec)
            assert type(key) is tuple
            assert key == dataclasses.astuple(spec)
            assert repr(key) == repr(dataclasses.astuple(spec))


# ---------------------------------------------------------------------- #
# Divergence
# ---------------------------------------------------------------------- #


class TestKeyDivergence:
    @given(edge_lists())
    @settings(max_examples=30, deadline=None)
    def test_single_edge_change_diverges(self, data):
        n, src, dst = data
        g1 = DiGraph(n, np.array(src, np.int64), np.array(dst, np.int64))
        g2 = DiGraph(
            n + 1,
            np.array(src + [n], np.int64),
            np.array(dst + [0], np.int64),
        )
        assert graph_fingerprint(g1) != graph_fingerprint(g2)

    @given(machine_specs, machine_specs)
    @settings(max_examples=40, deadline=None)
    def test_cluster_divergence_iff_specs_differ(self, spec_a, spec_b):
        """Cluster keys diverge exactly when any machine field differs:
        no cross-cluster leakage, no spurious cold starts."""
        ca = Cluster([spec_a], perf=PerformanceModel(model_scale=0.01))
        cb = Cluster([spec_b], perf=PerformanceModel(model_scale=0.01))
        if machine_key(spec_a) == machine_key(spec_b):
            assert cluster_key(ca) == cluster_key(cb)
        else:
            assert cluster_key(ca) != cluster_key(cb)
            assert key_sha(repr(cluster_key(ca))) != key_sha(
                repr(cluster_key(cb))
            )

    @given(
        st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_perf_scale_divergence(self, scale_a, scale_b):
        spec = MachineSpec("m", 4, 2.0, 8.0, 4.0)
        ka = cluster_key(
            Cluster([spec], perf=PerformanceModel(model_scale=scale_a))
        )
        kb = cluster_key(
            Cluster([spec], perf=PerformanceModel(model_scale=scale_b))
        )
        assert (ka == kb) == (scale_a == scale_b)

    @given(
        st.sampled_from(("random_hash", "grid", "oblivious", "ginger")),
        st.sampled_from(("random_hash", "grid", "oblivious", "ginger")),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_strategy_and_seed_divergence(self, name_a, name_b, seed_a, seed_b):
        graph = DiGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        weights = np.array([1.0, 1.0])
        ka = _assignment_key(name_a, (("seed", repr(seed_a)),), graph, 2, weights)
        kb = _assignment_key(name_b, (("seed", repr(seed_b)),), graph, 2, weights)
        same = name_a == name_b and seed_a == seed_b
        assert (repr(ka) == repr(kb)) == same

    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
            min_size=2, max_size=2,
        ),
        st.lists(
            st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
            min_size=2, max_size=2,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_weight_divergence(self, w_a, w_b):
        """Different capability weights can never share an assignment row."""
        graph = DiGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        wa = np.asarray(w_a, dtype=np.float64)
        wb = np.asarray(w_b, dtype=np.float64)
        ka = _assignment_key("hybrid", (), graph, 2, wa)
        kb = _assignment_key("hybrid", (), graph, 2, wb)
        assert (repr(ka) == repr(kb)) == bool(np.array_equal(wa, wb))


# ---------------------------------------------------------------------- #
# Store round-trip under arbitrary keys/payloads
# ---------------------------------------------------------------------- #


class TestStoreRoundTripProperties:
    @given(
        st.text(min_size=1, max_size=200),
        st.binary(min_size=0, max_size=512),
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_key_payload_roundtrip(self, key_text, payload):
        # Hypothesis forbids function-scoped fixtures under @given, so
        # the store lives in a temp dir managed inside the example.
        import tempfile

        from repro.store import SummaryStore

        with tempfile.TemporaryDirectory() as tmp:
            with SummaryStore.create(f"{tmp}/s.db") as store:
                store.put("estimate", key_text, payload)
                assert store.get("estimate", key_text) == payload

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_float_codec_exact(self, x):
        from repro.store.codecs import FLOAT_CODEC

        assert FLOAT_CODEC.decode(FLOAT_CODEC.encode(x)) == x

    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**31 - 1),
            min_size=0, max_size=64,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_assignment_codec_exact(self, values):
        from repro.store.codecs import ASSIGNMENT_CODEC

        arr = np.asarray(values, dtype=np.int32)
        out = ASSIGNMENT_CODEC.decode(ASSIGNMENT_CODEC.encode(arr))
        assert np.array_equal(out, arr)
