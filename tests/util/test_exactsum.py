"""Tests for ``exact_total``, the order-free sum RA702 rewrites to."""

import math

import numpy as np

from repro.util.exactsum import exact_total


class TestExactAccumulation:
    def test_matches_fsum(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(1e-6, 1e9, size=500).tolist()
        assert exact_total(values) == math.fsum(values)

    def test_order_free(self):
        """The total is independent of accumulation order."""
        rng = np.random.default_rng(11)
        values = rng.uniform(0.1, 1e6, size=200).tolist()
        assert exact_total(values) == exact_total(reversed(values))
        assert exact_total(values) == exact_total(sorted(values))

    def test_cancellation_visible_to_naive_sum(self):
        """The classic case where plain += loses: big + tiny."""
        values = (1e16, 1.0, -1e16)
        assert sum(values) != 1.0        # float + is lossy here
        assert exact_total(values) == 1.0

    def test_always_float(self):
        assert exact_total([2, 3]) == 5.0
        assert isinstance(exact_total([2, 3]), float)
        assert exact_total([]) == 0.0
