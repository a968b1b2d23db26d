"""Unit tests for repro.engine.accounting."""

import pytest

from repro.engine.accounting import AppCostModel
from repro.errors import EngineError


def model(**kw):
    defaults = dict(
        flops_per_edge_op=2.0,
        stream_bytes_per_edge_op=4.0,
        cacheable_bytes_per_edge_op=6.0,
        flops_per_vertex_op=8.0,
        stream_bytes_per_vertex_op=10.0,
        serial_fraction=0.1,
        serial_flops_per_superstep=100.0,
    )
    defaults.update(kw)
    return AppCostModel(**defaults)


class TestWork:
    def test_edge_and_vertex_costs(self):
        w = model(serial_fraction=0.0, serial_flops_per_superstep=0.0).work(
            edge_ops=10, vertex_ops=5
        )
        assert w.flops == pytest.approx(10 * 2 + 5 * 8)
        assert w.streaming_bytes == pytest.approx(10 * 4 + 5 * 10)
        assert w.cacheable_bytes == pytest.approx(10 * 6)

    def test_serial_fraction_split(self):
        w = model(serial_flops_per_superstep=0.0).work(edge_ops=100, vertex_ops=0)
        total = 100 * 2
        assert w.serial_flops == pytest.approx(0.1 * total)
        assert w.flops == pytest.approx(0.9 * total)
        assert w.flops + w.serial_flops == pytest.approx(total)

    def test_fixed_serial_added(self):
        w = model().work(edge_ops=0, vertex_ops=0)
        assert w.serial_flops == pytest.approx(100.0)

    def test_working_set_passthrough(self):
        assert model().work(1, 1, working_set_mb=7.5).working_set_mb == 7.5

    def test_negative_ops_rejected(self):
        with pytest.raises(EngineError):
            model().work(edge_ops=-1, vertex_ops=0)


class TestValidation:
    def test_negative_cost_rejected(self):
        with pytest.raises(EngineError):
            model(flops_per_edge_op=-1)

    def test_serial_fraction_bounds(self):
        with pytest.raises(EngineError):
            model(serial_fraction=1.0)
        with pytest.raises(EngineError):
            model(serial_fraction=-0.1)

    def test_value_bytes_minimum(self):
        with pytest.raises(EngineError):
            model(value_bytes=0)

    def test_negative_sync_rounds(self):
        with pytest.raises(EngineError):
            model(sync_rounds=-1)

    def test_frozen(self):
        m = model()
        with pytest.raises(Exception):
            m.value_bytes = 99
