"""Property-based tests (hypothesis) for the ``repro.kernels`` subsystem.

Three families of invariants:

* the CSR builder is a lossless, deterministic permutation of its input
  (round trip, degree preservation, permutation stability);
* the sort kernels reproduce their numpy reference implementations
  exactly;
* the LRU cache behaves like a plain mapping — hits and misses can never
  change what a lookup returns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.digraph import DiGraph
from repro.kernels.cache import LRUCache, graph_fingerprint
from repro.kernels.csr import (
    CSRAdjacency,
    concat_ranges,
    sorted_distinct,
    stable_argsort,
    stable_machine_order,
)

# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #


@st.composite
def edge_arrays(draw):
    n = draw(st.integers(min_value=1, max_value=50))
    m = draw(st.integers(min_value=0, max_value=150))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


@st.composite
def assignments(draw):
    m = draw(st.integers(min_value=1, max_value=8))
    size = draw(st.integers(min_value=0, max_value=200))
    a = draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size))
    return np.array(a, dtype=np.int32), m


# ---------------------------------------------------------------------- #
# CSR builder
# ---------------------------------------------------------------------- #


class TestCSRAdjacency:
    @given(edge_arrays())
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, data):
        """graph -> CSR -> edges recovers the canonical edge arrays."""
        n, src, dst = data
        csr = CSRAdjacency.from_edges(n, src, dst)
        back_src, back_dst = csr.to_edges()
        assert np.array_equal(back_src, src)
        assert np.array_equal(back_dst, dst)

    @given(edge_arrays())
    @settings(max_examples=80, deadline=None)
    def test_degrees_preserved(self, data):
        n, src, dst = data
        csr = CSRAdjacency.from_edges(n, src, dst)
        assert np.array_equal(csr.degrees(), np.bincount(src, minlength=n))
        assert csr.num_edges == src.size
        assert csr.indptr[-1] == src.size

    @given(edge_arrays())
    @settings(max_examples=60, deadline=None)
    def test_neighbor_slices_in_canonical_order(self, data):
        """Slots of one source keep the canonical (stable) edge order."""
        n, src, dst = data
        csr = CSRAdjacency.from_edges(n, src, dst)
        for v in range(n):
            lo, hi = int(csr.indptr[v]), int(csr.indptr[v + 1])
            eids = csr.edge_ids[lo:hi]
            assert np.array_equal(eids, np.sort(eids))  # stable within row
            assert np.array_equal(csr.indices[lo:hi], dst[eids])
            assert np.all(src[eids] == v)

    @given(edge_arrays(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_under_permuted_input(self, data, rng):
        """Permuting the edge list permutes ``edge_ids`` and nothing else.

        Sorting the permuted CSR's slots back by edge id must recover the
        canonical CSR exactly — construction order cannot leak into the
        adjacency structure.
        """
        n, src, dst = data
        perm = np.arange(src.size)
        rng.shuffle(perm)
        canonical = CSRAdjacency.from_edges(n, src, dst)
        permuted = CSRAdjacency.from_edges(n, src[perm], dst[perm])
        assert np.array_equal(permuted.indptr, canonical.indptr)
        # Canonical edge id of each permuted slot; per row, re-sorting by
        # it must reproduce the canonical row exactly.
        back = perm[permuted.edge_ids]
        for v in range(n):
            lo, hi = int(canonical.indptr[v]), int(canonical.indptr[v + 1])
            order = np.argsort(back[lo:hi], kind="stable")
            assert np.array_equal(
                back[lo:hi][order], canonical.edge_ids[lo:hi]
            )
            assert np.array_equal(
                permuted.indices[lo:hi][order], canonical.indices[lo:hi]
            )

    @given(edge_arrays())
    @settings(max_examples=40, deadline=None)
    def test_from_graph_matches_from_edges(self, data):
        n, src, dst = data
        g = DiGraph(n, src, dst)
        a = CSRAdjacency.from_graph(g)
        gsrc, gdst = g.edges()
        b = CSRAdjacency.from_edges(n, gsrc, gdst)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.edge_ids, b.edge_ids)


# ---------------------------------------------------------------------- #
# Sort kernels
# ---------------------------------------------------------------------- #


class TestSortKernels:
    @given(assignments())
    @settings(max_examples=80, deadline=None)
    def test_stable_machine_order_matches_argsort(self, data):
        assignment, m = data
        order, counts = stable_machine_order(assignment, m)
        assert np.array_equal(order, np.argsort(assignment, kind="stable"))
        assert np.array_equal(counts, np.bincount(assignment, minlength=m))

    @given(st.lists(st.integers(0, 99), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_stable_machine_order_many_machines(self, values):
        """Past the counting-sort cut-off the order comes from stable_argsort."""
        assignment = np.array(values, dtype=np.int32)
        order, counts = stable_machine_order(assignment, 100)
        assert np.array_equal(order, np.argsort(assignment, kind="stable"))
        assert np.array_equal(counts, np.bincount(assignment, minlength=100))

    @given(
        st.lists(st.integers(0, 40), max_size=200),
        st.integers(0, 5),
        st.sampled_from([np.int64, np.int32]),
    )
    @settings(max_examples=100, deadline=None)
    def test_stable_argsort_matches_argsort(self, keys, slack, dtype):
        arr = np.array(keys, dtype=dtype)
        bound = max(keys, default=0) + 1 + slack
        order = stable_argsort(arr, bound)
        assert order.dtype == np.int64
        assert np.array_equal(order, np.argsort(arr, kind="stable"))

    @pytest.mark.parametrize(
        "keys",
        [[], [3] * 50, [0], [5, 4, 3, 2, 1, 0], [1, 0] * 40],
        ids=["empty", "all-equal", "single", "descending", "alternating"],
    )
    def test_stable_argsort_edge_cases(self, keys):
        arr = np.array(keys, dtype=np.int64)
        order = stable_argsort(arr, max(keys, default=0) + 1)
        assert order.dtype == np.int64
        assert np.array_equal(order, np.argsort(arr, kind="stable"))

    @given(st.lists(st.integers(0, 2**62 - 1), max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_stable_argsort_overflow_fallback(self, keys):
        """``bound * len`` past int64 takes numpy's stable sort instead."""
        arr = np.array(keys, dtype=np.int64)
        order = stable_argsort(arr, 2**62)
        assert order.dtype == np.int64
        assert np.array_equal(order, np.argsort(arr, kind="stable"))

    @given(st.lists(st.integers(-50, 50), max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_sorted_distinct_matches_unique(self, values):
        arr = np.array(values, dtype=np.int64)
        expected = np.unique(arr)
        got = sorted_distinct(arr)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @given(
        st.lists(
            st.tuples(st.integers(0, 500), st.integers(0, 30)),
            min_size=0,
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_concat_ranges_matches_reference(self, spans):
        starts = np.array([s for s, _ in spans], dtype=np.int64)
        stops = starts + np.array([w for _, w in spans], dtype=np.int64)
        expected = (
            np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])
            if spans
            else np.empty(0, dtype=np.int64)
        )
        assert np.array_equal(concat_ranges(starts, stops), expected)


# ---------------------------------------------------------------------- #
# LRU cache and fingerprints
# ---------------------------------------------------------------------- #


class TestLRUCache:
    @given(
        st.lists(
            st.tuples(st.sampled_from("gp"), st.integers(0, 9)),
            min_size=0,
            max_size=200,
        ),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_mapping_model(self, ops, maxsize):
        """Against a plain-dict model: a hit never changes the answer.

        Values are a pure function of the key (as every kernel cache
        requires), so the only admissible divergence from the model is a
        ``None`` (miss after eviction) — never a *wrong* value.
        """
        cache = LRUCache(maxsize=maxsize)
        model = {}
        for op, key in ops:
            if op == "p":
                value = ("value", key)
                cache.put(key, value)
                model[key] = value
            else:
                got = cache.get(key)
                if got is not None:
                    assert got == model[key]
            assert len(cache) <= maxsize

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        stats = cache.stats()
        assert stats["hits"] == 3 and stats["misses"] == 1

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


class TestGraphFingerprint:
    @given(edge_arrays())
    @settings(max_examples=40, deadline=None)
    def test_content_keyed(self, data):
        """Independently built copies collide; any change separates them."""
        n, src, dst = data
        a = DiGraph(n, src, dst)
        b = DiGraph(n, src.copy(), dst.copy())
        assert graph_fingerprint(a) == graph_fingerprint(b)
        bigger = DiGraph(n + 1, src, dst)
        assert graph_fingerprint(a) != graph_fingerprint(bigger)
        if src.size:
            src2 = src.copy()
            src2[0] = (src2[0] + 1) % n if n > 1 else src2[0]
            if not np.array_equal(src2, src):
                changed = DiGraph(n, src2, dst)
                assert graph_fingerprint(a) != graph_fingerprint(changed)

    def test_memoised_per_instance(self, tiny_graph):
        first = graph_fingerprint(tiny_graph)
        assert tiny_graph.__dict__["_kernels_fingerprint"] == first
        assert graph_fingerprint(tiny_graph) == first
