"""Codec round-trip properties: same floats, same order, every time.

The snapshot bit-identical guarantee reduces to the keyed-table codec
being lossless and order-preserving, so hypothesis drives it with
arbitrary int64 keys and float64 values (including the awkward ones:
subnormals, huge magnitudes, negative zero).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.codec import (
    decode_keyed_table,
    encode_keyed_table,
    key_column_names,
)

_INT64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
_FLOATS = st.floats(allow_nan=False, allow_infinity=True, width=64)


def _tables(width):
    return st.dictionaries(
        keys=st.tuples(*([_INT64] * width)), values=_FLOATS, max_size=40)


@st.composite
def _table_and_width(draw):
    width = draw(st.integers(min_value=1, max_value=7))
    return draw(_tables(width)), width


class TestKeyedTableProperties:
    @given(_table_and_width())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_exact_and_ordered(self, table_and_width):
        table, width = table_and_width
        columns = encode_keyed_table(table, width)
        decoded = list(decode_keyed_table(columns, width))
        assert [key for key, _ in decoded] == list(table)
        for (_key, got), expected in zip(decoded, table.values()):
            # == would call -0.0 and 0.0 the same row; bit-identity is
            # the actual contract
            assert math.isnan(got) if math.isnan(expected) else (
                got == expected and math.copysign(1.0, got)
                == math.copysign(1.0, expected))

    @given(_table_and_width())
    @settings(max_examples=50, deadline=None)
    def test_column_shapes(self, table_and_width):
        table, width = table_and_width
        columns = encode_keyed_table(table, width)
        assert sorted(columns) == sorted(
            key_column_names(width) + ("value",))
        for name, column in columns.items():
            assert len(column) == len(table)
            assert column.dtype == (np.float64 if name == "value"
                                    else np.int64)

    def test_wrong_key_width_rejected(self):
        with pytest.raises(ValueError):
            encode_keyed_table({(1, 2): 1.0}, 3)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            encode_keyed_table({}, 0)
