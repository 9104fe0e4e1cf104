"""Property-based tests for the deterministic hashing utilities."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import geometric_day, mix64, rotation, unit

ints = st.integers(min_value=0, max_value=2**62)
int_lists = st.lists(ints, min_size=1, max_size=8)


class TestMix64Properties:
    @given(int_lists, ints)
    def test_deterministic(self, values, seed):
        assert mix64(*values, seed=seed) == mix64(*values, seed=seed)

    @given(int_lists)
    def test_range(self, values):
        assert 0 <= mix64(*values) < 2**64

    @given(int_lists, ints)
    def test_appending_changes_hash(self, values, extra):
        # not strictly guaranteed, but collisions at this rate would be a
        # bug; hypothesis will find systematic failures
        assert mix64(*values) != mix64(*values, extra) or extra == 0


class TestUnitProperties:
    @given(int_lists, ints)
    def test_in_unit_interval(self, values, seed):
        u = unit(*values, seed=seed)
        assert 0.0 <= u < 1.0


class TestRotationProperties:
    @given(st.integers(min_value=1, max_value=100), int_lists)
    def test_in_range(self, n, values):
        assert 0 <= rotation(n, *values) < n


class TestGeometricDayProperties:
    @given(st.floats(min_value=0.001, max_value=0.99), int_lists)
    def test_nonnegative_and_capped(self, p, values):
        day = geometric_day(p, *values, cap=1000)
        assert 0 <= day <= 1000

    @given(int_lists)
    @settings(max_examples=30)
    def test_higher_probability_earlier_on_average(self, values):
        early = sum(geometric_day(0.5, *values, i) for i in range(30))
        late = sum(geometric_day(0.01, *values, i) for i in range(30))
        assert early <= late
