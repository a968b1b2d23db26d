"""Unit tests for repro.core.ccr (Eq. 1 and the CCR pool)."""

import numpy as np
import pytest

from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.core.ccr import CCRPool, CCRTable, ccr_from_times
from repro.errors import ProfilingError


class TestCcrFromTimes:
    def test_eq1_definition(self):
        """CCR[i,j] = max_j(t) / t: slowest anchors at 1."""
        ccr = ccr_from_times({"slow": 10.0, "fast": 5.0})
        assert ccr["slow"] == 1.0
        assert ccr["fast"] == 2.0

    def test_paper_example(self):
        """Machine A twice as fast as baseline B -> 2 : 1 (Sec. III-B)."""
        ccr = ccr_from_times({"B": 4.0, "A": 2.0})
        assert ccr["A"] / ccr["B"] == pytest.approx(2.0)

    def test_graph_size_invariance(self):
        """Scaling all times (a bigger graph) leaves CCR unchanged."""
        small = ccr_from_times({"a": 1.0, "b": 3.0})
        large = ccr_from_times({"a": 10.0, "b": 30.0})
        assert small == large

    def test_empty_rejected(self):
        with pytest.raises(ProfilingError):
            ccr_from_times({})

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ProfilingError):
            ccr_from_times({"a": 0.0})


class TestCCRTable:
    def test_ratio_lookup(self):
        t = CCRTable("pagerank", {"a": 1.0, "b": 2.5})
        assert t.ratio("b") == 2.5

    def test_missing_machine_type(self):
        t = CCRTable("pagerank", {"a": 1.0})
        with pytest.raises(ProfilingError, match="not profiled"):
            t.ratio("z")

    def test_sub_one_ratio_rejected(self):
        with pytest.raises(ProfilingError):
            CCRTable("x", {"a": 0.5})

    def test_empty_rejected(self):
        with pytest.raises(ProfilingError):
            CCRTable("x", {})

    def test_weights_for_cluster_repeat_types(self):
        """Every instance of a type gets the type's ratio (Sec. III-B)."""
        t = CCRTable("x", {"m4.2xlarge": 1.0, "c4.2xlarge": 1.2})
        cluster = Cluster(
            [get_machine("m4.2xlarge")] * 2 + [get_machine("c4.2xlarge")] * 2
        )
        w = t.weights_for(cluster)
        assert w.sum() == pytest.approx(1.0)
        assert w[2] / w[0] == pytest.approx(1.2)
        assert w[0] == w[1] and w[2] == w[3]

    def test_weights_missing_type(self):
        t = CCRTable("x", {"m4.2xlarge": 1.0})
        cluster = Cluster([get_machine("c4.xlarge")])
        with pytest.raises(ProfilingError):
            t.weights_for(cluster)


class TestCCRPool:
    def test_add_get(self):
        pool = CCRPool()
        pool.add(CCRTable("pagerank", {"a": 1.0}))
        assert pool.get("pagerank").app == "pagerank"
        assert "pagerank" in pool
        assert len(pool) == 1

    def test_missing_app(self):
        with pytest.raises(ProfilingError, match="no CCR profiled"):
            CCRPool().get("pagerank")

    def test_json_roundtrip(self):
        pool = CCRPool()
        pool.add(CCRTable("pagerank", {"a": 1.0, "b": 3.5}))
        pool.add(CCRTable("coloring", {"a": 1.0, "b": 2.0}))
        back = CCRPool.from_json(pool.to_json())
        assert back.get("pagerank").ratio("b") == 3.5
        assert set(back.apps()) == {"pagerank", "coloring"}

    def test_file_roundtrip(self, tmp_path):
        pool = CCRPool()
        pool.add(CCRTable("tc", {"a": 1.0, "b": 1.7}))
        path = tmp_path / "pool.json"
        pool.save(path)
        assert CCRPool.load(path).get("tc").ratio("b") == 1.7

    def test_malformed_json(self):
        with pytest.raises(ProfilingError):
            CCRPool.from_json("{not json")

    def test_non_object_json(self):
        with pytest.raises(ProfilingError):
            CCRPool.from_json("[1, 2]")

    @pytest.mark.parametrize(
        "ratio", ['"x"', "null", "true", "[2.0]", "NaN", "Infinity"]
    )
    def test_non_numeric_ratio_rejected(self, ratio):
        with pytest.raises(ProfilingError, match="finite number"):
            CCRPool.from_json('{"pagerank": {"a": %s, "b": 1.0}}' % ratio)

    def test_huge_integer_ratio_rejected(self):
        """An integer with no float (past about 1e308) is not finite: a
        typed error, not a bare ``OverflowError``."""
        with pytest.raises(ProfilingError, match="finite number"):
            CCRTable("pr", {"a": 10**400})
        with pytest.raises(ProfilingError, match="finite number"):
            CCRPool.from_json('{"pagerank": {"a": 1%s, "b": 1.0}}' % ("0" * 400))
        with pytest.raises(ProfilingError, match="malformed"):
            CCRPool.from_json('{"pagerank": {"a": 1%s}}' % ("0" * 5000))

    def test_top_level_null_entry_rejected(self):
        with pytest.raises(ProfilingError, match="machine->ratio"):
            CCRPool.from_json('{"a": null}')

    def test_numpy_ratios_accepted(self):
        table = CCRTable("pr", {"a": np.float64(1.0), "b": np.float64(2.5)})
        assert table.ratio("b") == 2.5
