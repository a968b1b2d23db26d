"""Unit tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_array_1d,
    check_in_range,
    check_positive,
    check_probability,
    require_array,
    require_integer,
    require_real,
)


class TestCheckPositive:
    def test_accepts_and_returns(self):
        assert check_positive("x", 2.5) == 2.5

    def test_strict_rejects_zero(self):
        with pytest.raises(ValueError, match="> 0"):
            check_positive("x", 0)

    def test_nonstrict_accepts_zero(self):
        assert check_positive("x", 0, strict=False) == 0

    def test_nonstrict_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            check_positive("x", -1, strict=False)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            check_positive("x", float("nan"))

    def test_message_contains_name(self):
        with pytest.raises(ValueError, match="myparam"):
            check_positive("myparam", -3)


class TestCheckProbability:
    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_accepts_bounds(self, v):
        assert check_probability("p", v) == v

    @pytest.mark.parametrize("v", [-0.01, 1.01, float("inf")])
    def test_rejects_outside(self, v):
        with pytest.raises(ValueError):
            check_probability("p", v)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_in_range("x", 1.0, 1.0, 2.0, inclusive=False)

    def test_inside_exclusive(self):
        assert check_in_range("x", 1.5, 1.0, 2.0, inclusive=False) == 1.5


class TestCheckArray1d:
    def test_coerces_list(self):
        out = check_array_1d("a", [1, 2, 3], dtype=np.int64)
        assert out.dtype == np.int64 and out.shape == (3,)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            check_array_1d("a", np.zeros((2, 2)))


class _Bad(Exception):
    pass


class TestRequireArray:
    """The exact-type pass accepts what the per-entry check accepts and
    leaves every rejection, and its message, to that check."""

    @pytest.mark.parametrize(
        "value, item",
        [
            ([0, 3, 2**70], require_integer),
            ((), require_integer),
            ([np.int64(4), 5], require_integer),
            ([1, 2.5, float("nan"), float("inf")], require_real),
            ([np.float32(1.5), 2], require_real),
        ],
    )
    def test_accepts(self, value, item):
        require_array(value, "xs", _Bad, item)

    @pytest.mark.parametrize(
        "value, item, bad",
        [
            ([1, True, 2], require_integer, "True"),
            ([1, 2.0], require_integer, "2.0"),
            ([1, "3", None], require_integer, "'3'"),
            ([1.0, False], require_real, "False"),
            ([1.0, None, "x"], require_real, "None"),
        ],
    )
    def test_first_bad_entry_is_named(self, value, item, bad):
        with pytest.raises(_Bad) as info:
            require_array(value, "xs", _Bad, item)
        assert str(info.value).startswith("xs entry must be")
        assert str(info.value).endswith(f"got {bad}")

    def test_not_an_array(self):
        with pytest.raises(_Bad, match="xs must be an array, got dict"):
            require_array({}, "xs", _Bad, require_integer)
