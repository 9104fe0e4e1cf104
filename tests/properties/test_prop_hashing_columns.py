"""The column twins of the hashing mixers equal the scalar forms.

``mix64_columns``, ``unit_columns``, ``rotation_columns`` and
``geometric_day_columns`` hash each row of an integer matrix as
``mix64``, ``unit``, ``rotation`` and ``geometric_day`` hash its
values: taken mod 2**64 (int64 negatives, uint64 values from 2**63),
with one seed or one per row, and a row's trailing values masked off by
its length; a row's first values folded into a seed (``folded_seed``)
and the rest hashed from it hash as the whole row.  ``unit``'s
``uint64 -> float64`` rounding is pinned exactly on the half-way cases,
reached through the public function by inverting the finalizer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.hashing import (folded_seed, geometric_day,
                                geometric_day_columns, mix64, mix64_columns,
                                rotation, rotation_columns, unit,
                                unit_columns)

MASK = (1 << 64) - 1
HEAD = 2          # values every row folds
TAIL = 3          # then up to this many more, per row

int64s = st.one_of(st.sampled_from([0, 1, -1, 2**63 - 1, -2**63]),
                   st.integers(-2**63, 2**63 - 1))
uint64s = st.one_of(st.sampled_from([0, 2**63, 2**64 - 1]),
                    st.integers(0, 2**64 - 1))
seeds = st.integers(-2**70, 2**70)


@st.composite
def matrices(draw):
    """(values as an int64 or uint64 matrix, each row's length, the seed:
    one python int, or an int64 or uint64 array of one per row)."""
    n = draw(st.integers(1, 8))
    wide = draw(st.booleans())
    cells = st.lists(uint64s if wide else int64s, min_size=HEAD + TAIL,
                     max_size=HEAD + TAIL)
    values = np.array(draw(st.lists(cells, min_size=n, max_size=n)),
                      dtype=np.uint64 if wide else np.int64)
    lengths = HEAD + np.array(
        draw(st.lists(st.integers(0, TAIL), min_size=n, max_size=n)),
        dtype=np.int64)
    if draw(st.booleans()):
        seed = draw(seeds)
    else:
        wide = draw(st.booleans())
        seed = np.array(draw(st.lists(uint64s if wide else int64s,
                                      min_size=n, max_size=n)),
                        dtype=np.uint64 if wide else np.int64)
    return values, lengths, seed


def scalar_args(values, lengths, seed):
    """Each row's python-int values and seed, as the scalar form takes
    them."""
    for i, row in enumerate(values.tolist()):
        yield row[:lengths[i]], (seed if isinstance(seed, int)
                                 else int(seed[i]))


class TestColumnTwins:
    @given(matrices())
    @settings(max_examples=200, deadline=None)
    def test_mix64(self, case):
        values, lengths, seed = case
        got = mix64_columns(values, seed, lengths)
        assert got.dtype == np.uint64
        assert got.tolist() == [mix64(*row, seed=s) for row, s in
                                scalar_args(values, lengths, seed)]

    @given(matrices())
    @settings(max_examples=200, deadline=None)
    def test_unit(self, case):
        values, lengths, seed = case
        got = unit_columns(values, seed, lengths)
        assert got.dtype == np.float64
        assert [u.hex() for u in got.tolist()] == [
            unit(*row, seed=s).hex() for row, s in
            scalar_args(values, lengths, seed)]

    @given(matrices(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rotation(self, case, data):
        values, lengths, seed = case
        n = np.array(data.draw(st.lists(
            st.one_of(st.integers(1, 5), st.integers(1, 2**63 - 1)),
            min_size=len(values), max_size=len(values))), dtype=np.int64)
        got = rotation_columns(n, values, seed, lengths)
        assert got.dtype == np.int64
        assert got.tolist() == [
            rotation(int(k), *row, seed=s) for k, (row, s) in
            zip(n, scalar_args(values, lengths, seed))]

    @given(matrices())
    @settings(max_examples=50, deadline=None)
    def test_no_lengths_folds_every_value(self, case):
        values, _lengths, seed = case
        full = np.full(len(values), values.shape[1], dtype=np.int64)
        assert np.array_equal(mix64_columns(values, seed),
                              mix64_columns(values, seed, full))

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_a_folded_seed_goes_on_from_the_first_values(self, case):
        """Folding the first values once, as a seed per row, and the
        rest from it hashes as folding the whole row."""
        values, lengths, seed = case
        assert np.array_equal(
            mix64_columns(values[:, HEAD:],
                          folded_seed(values[:, :HEAD], seed),
                          lengths - HEAD),
            mix64_columns(values, seed, lengths))

    @given(matrices(), st.one_of(
        st.sampled_from([0.0, 2**-53, 0.5, 0.99, 1 - 2**-20, 1 - 2**-53]),
        st.floats(2**-53, 1.0, exclude_max=True)),
        st.one_of(st.integers(0, 30), st.integers(-2**53 + 1, 2**53 - 1)))
    @settings(max_examples=200, deadline=None)
    def test_geometric_day(self, case, p, cap):
        """Row for row, for ``p`` from 0 (every row at ``cap``) up to
        one ulp below 1, and caps that bind."""
        values, _lengths, seed = case
        full = np.full(len(values), values.shape[1], dtype=np.int64)
        got = geometric_day_columns(p, values, seed, cap)
        assert got.dtype == np.int64
        assert got.tolist() == [
            geometric_day(p, *row, seed=s, cap=cap)
            for row, s in scalar_args(values, full, seed)]

    @pytest.mark.parametrize("p", [-0.1, 1.0, float("nan")])
    def test_geometric_day_needs_p_in_the_unit_interval(self, p):
        with pytest.raises(ValueError):
            geometric_day_columns(p, np.zeros((2, 1), dtype=np.int64))

    @pytest.mark.parametrize("p", [2**-54, 1e-17, 5e-324])
    def test_geometric_day_raises_where_one_minus_p_rounds_to_one(self, p):
        """As the scalar divides by ``log(1 - p) == 0``, not a day."""
        with pytest.raises(ZeroDivisionError):
            geometric_day(p, 1, 2)
        with pytest.raises(ZeroDivisionError):
            geometric_day_columns(p, np.ones((2, 2), dtype=np.int64))

    def test_rotation_needs_n_of_one_or_more(self):
        values = np.zeros((2, 1), dtype=np.int64)
        with pytest.raises(ValueError):
            rotation_columns(np.array([3, 0], dtype=np.int64), values)


def _unshift(y, shift):
    """The x with ``x ^ (x >> shift) == y``."""
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def preimage(target, seed):
    """The one value ``v`` with ``mix64(v, seed=seed) == target``."""
    x = _unshift(target, 31)
    x = (x * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK
    x = _unshift(x, 27)
    x = (x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK
    x = _unshift(x, 30)
    return (x - ((seed ^ 0x9E3779B97F4A7C15) & MASK)) & MASK


class TestUnitRounding:
    """``uint64 -> float64`` above 2**53 drops 11 bits: a value exactly
    half-way rounds to the even neighbour, as ``int / float`` does."""

    CASES = [
        # half-way, odd mantissa: rounds up
        ((2**52 + 1) * 2**11 + 2**10, (2**52 + 2) * 2**11),
        # half-way, even mantissa: rounds down
        (2**52 * 2**11 + 2**10, 2**52 * 2**11),
        ((2**52 + 2) * 2**11 + 2**10, (2**52 + 2) * 2**11),
        # just either side of half-way
        ((2**52 + 1) * 2**11 + 2**10 - 1, (2**52 + 1) * 2**11),
        ((2**52 + 2) * 2**11 + 2**10 + 1, (2**52 + 3) * 2**11),
        # the top: half-way from the largest mantissa rounds to 2**64
        ((2**53 - 1) * 2**11 + 2**10, 2**64),
        # below 2**53 every value is exact
        (2**53 - 1, 2**53 - 1),
    ]

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**63 + 5])
    @pytest.mark.parametrize("hashed, rounded", CASES)
    def test_ties_round_to_even(self, hashed, rounded, seed):
        value = preimage(hashed, seed)
        assert mix64(value, seed=seed) == hashed
        got = unit_columns(np.array([[value]], dtype=np.uint64), seed)[0]
        assert got.hex() == unit(value, seed=seed).hex()
        assert got == rounded / 2.0**64
