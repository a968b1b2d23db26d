"""Differential tests for repro.utils.canonical against one json.dumps call.

The walker recurses into dicts, writes lists longer than 512 items a run
at a time and splices :class:`Encoded` leaves verbatim; the reference
(``tests/oracle/canonical.py``) is ``json.dumps(value, sort_keys=True,
separators=(",", ":"))`` of the same value with each leaf parsed back.
The two must agree byte for byte, and ``canonical_digest`` must hash the
same bytes without building them.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.span import Span
from repro.utils.canonical import (
    Encoded,
    canonical_digest,
    canonical_json,
    canonical_pieces,
    jsonable,
)
from tests.oracle.canonical import (
    reference_canonical_digest,
    reference_canonical_json,
)
from tests.oracle.trace import reference_jsonable

#: Around the 512-item run boundary, and two runs plus one.
LONG_SIZES = (0, 511, 512, 513, 1025)

float_st = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [-0.0, 5e-324, 2.2250738585072014e-308, -5e-324, math.inf, -math.inf]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
int_st = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([2**53 + 1, -(2**53 + 1), 0]),
)
#: Keys and text, empty and non-ASCII included.
text_st = st.one_of(
    st.text(max_size=5), st.sampled_from(["", "é", "名前", "\U0001f600", "a\"\\"])
)
leaf_st = st.one_of(st.none(), st.booleans(), int_st, float_st, text_st)


def _encoded(inner):
    return st.builds(lambda v: Encoded(reference_canonical_json(v)), inner)


@st.composite
def long_lists(draw, inner):
    """A list of 0, 511, 512, 513 or 1,025 items cycled from a few drawn
    ones, so every run boundary is crossed without drawing 1,025 values."""
    size = draw(st.sampled_from(LONG_SIZES))
    items = draw(st.lists(inner, min_size=1, max_size=4))
    value = [items[i % len(items)] for i in range(size)]
    if size and draw(st.booleans()):
        # One marked leaf at a drawn spot, often on a boundary.
        spot = draw(st.sampled_from([0, 510, 511, 512, size - 1]))
        value[min(spot, size - 1)] = draw(_encoded(leaf_st))
    return value


#: Items of a long list: leaves and small dicts, never another long list,
#: so nesting cannot multiply 1,025 items into millions.
long_item_st = st.one_of(
    leaf_st, _encoded(leaf_st), st.dictionaries(text_st, leaf_st, max_size=2)
)

json_st = st.recursive(
    st.one_of(leaf_st, _encoded(leaf_st), long_lists(long_item_st)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(text_st, inner, max_size=4),
        st.lists(st.dictionaries(text_st, inner, max_size=3), max_size=3),
        _encoded(inner),
    ),
    max_leaves=16,
)


def _assert_like_reference(value):
    text = reference_canonical_json(value)
    assert canonical_json(value) == text
    assert "".join(canonical_pieces(value)) == text
    assert canonical_digest(value) == reference_canonical_digest(value)


class TestDifferential:
    @given(json_st)
    @settings(max_examples=300, deadline=None)
    def test_matches_one_json_dumps_call(self, value):
        _assert_like_reference(value)

    @pytest.mark.parametrize("size", LONG_SIZES)
    def test_long_float_lists_in_a_record(self, size):
        values = [(-1) ** i * (i + 0.1) / 7 for i in range(size)]
        _assert_like_reference({"result": {"ranks": values}, "n": size})

    @pytest.mark.parametrize("spot", [0, 511, 512, 1024])
    def test_encoded_leaf_on_a_run_boundary(self, spot):
        value = list(range(1025))
        value[spot] = Encoded('{"a":[1,2.5]}')
        _assert_like_reference({"records": value})

    def test_special_floats_and_wide_ints(self):
        _assert_like_reference(
            {
                "f": [-0.0, 5e-324, math.inf, -math.inf, math.nan],
                "np": [np.float64(-0.0), np.float64(5e-324), np.float64("nan")],
                "i": [2**53 + 1, True, False, None],
            }
        )

    def test_non_string_keys_are_ordered_as_json_orders_them(self):
        # json sorts int keys as ints (9 before 10), then quotes them.
        _assert_like_reference({"m": {10: "a", 9: "b"}})
        _assert_like_reference({10: "a", 9: "b"})

    def test_top_level_encoded_leaf_is_verbatim(self):
        assert canonical_json(Encoded("[1,2]")) == "[1,2]"
        assert canonical_json([Encoded("[1,2]"), "x"]) == '[[1,2],"x"]'

    def test_unencodable_leaf_still_raises(self):
        with pytest.raises(TypeError):
            canonical_json({"a": [object()]})
        with pytest.raises(TypeError):
            canonical_json(list(range(600)) + [object()])


class TestJsonable:
    """``tests/oracle/trace.py::reference_jsonable`` is the oracle of the
    shared ``jsonable`` that traces and spans both use."""

    def test_span_attributes_match_reference(self):
        attributes = {
            10: np.array([[1, 2], [3, 4]], dtype=np.int32),
            9: np.float32(0.5),
            "total": np.array(2.5),
            "flags": (np.bool_(True), None),
        }
        span = Span("s", 0, None, 0, attributes=attributes)
        plain = span.to_jsonable()["attributes"]
        expected = reference_jsonable({**attributes, "total": 2.5})
        assert repr(plain) == repr(expected)
        assert list(plain) == ["10", "9", "flags", "total"]
        assert json.dumps(plain) == json.dumps(expected)

    def test_int_keys_sort_as_strings(self):
        assert list(jsonable({10: 0, 9: 0, 1: 0})) == ["1", "10", "9"]
