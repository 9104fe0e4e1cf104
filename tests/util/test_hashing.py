"""Tests for the deterministic hashing utilities."""

import pytest

from repro.util import geometric_day, mix64, rotation, unit


class TestMix64:
    def test_deterministic(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)

    def test_seed_changes_output(self):
        assert mix64(1, 2, seed=0) != mix64(1, 2, seed=1)

    def test_order_matters(self):
        assert mix64(1, 2) != mix64(2, 1)

    def test_in_64_bit_range(self):
        h = mix64(123456789, 987654321)
        assert 0 <= h < (1 << 64)

    def test_no_trivial_collisions(self):
        values = {mix64(i) for i in range(10_000)}
        assert len(values) == 10_000


class TestUnit:
    def test_in_unit_interval(self):
        for i in range(1000):
            assert 0.0 <= unit(i, 7) < 1.0

    def test_roughly_uniform(self):
        n = 20_000
        mean = sum(unit(i) for i in range(n)) / n
        assert 0.48 < mean < 0.52


class TestRotation:
    def test_range(self):
        for i in range(100):
            assert 0 <= rotation(7, i) < 7

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            rotation(0, 1)

    def test_set_keyed_rotation_changes_on_membership(self):
        # the property the ingress simulator relies on: changing the
        # candidate set usually re-draws the choice
        changed = 0
        trials = 200
        for i in range(trials):
            full = rotation(3, i, 10, 20, 30)
            reduced = rotation(2, i, 10, 20)
            if full != reduced:
                changed += 1
        assert changed > trials * 0.3


class TestGeometricDay:
    def test_zero_probability_gives_cap(self):
        assert geometric_day(0.0, 1, cap=500) == 500

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            geometric_day(1.0, 1)
        with pytest.raises(ValueError):
            geometric_day(-0.1, 1)

    def test_deterministic(self):
        assert geometric_day(0.01, 42) == geometric_day(0.01, 42)

    def test_mean_close_to_geometric(self):
        p = 0.05
        n = 5000
        mean = sum(geometric_day(p, i) for i in range(n)) / n
        # E[geometric first-success index] = (1-p)/p = 19
        assert 15 < mean < 24

    def test_capped(self):
        assert all(geometric_day(1e-9, i, cap=100) <= 100
                   for i in range(50))
