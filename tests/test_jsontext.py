"""Tests for the report JSON writer: the text of json.dumps(indent=2)."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from splitloci import jsontext

# non-ASCII, control, quote and backslash characters, and surrogates
texts = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f'))
scalars = (st.none() | st.booleans() | texts
           | st.integers() | st.integers(-10 ** 60, 10 ** 60))
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(texts, inner, max_size=4)),
    max_leaves=30)


class TestDumps:
    @given(values)
    def test_matches_json_dumps_with_indent_2(self, value):
        assert jsontext.dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        {}, [], (), [[], {}], {"": ""}, True, False, None, 0, -1, 10 ** 100,
        "é \ud800\x00\"\\/", {"a": [1, {"b": (2, None)}]}])
    def test_matches_json_dumps_on_edge_values(self, value):
        assert jsontext.dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        Fraction(1, 2), 0.5, [1, 2.0], {"a": {"b": Fraction(3)}},
        {1: "a"}, {"a": {None: 1}}, {("a",): 1}, {1, 2}, b"bytes"])
    def test_other_values_and_keys_raise_type_error(self, value):
        with pytest.raises(TypeError):
            jsontext.dumps(value)

    def test_quoting_is_the_standard_librarys(self):
        # json.encoder re-exports the C function the writer takes from _json
        assert jsontext._quote is json.encoder.encode_basestring_ascii

    def test_subclasses_of_the_accepted_types(self):
        class Str(str):
            pass

        class Int(int):
            def __repr__(self):
                return "Int()"

        class Dict(dict):
            pass

        value = Dict({Str("k"): [Str("v"), Int(3)]})
        assert jsontext.dumps(value) == json.dumps(value, indent=2)
