"""Shared fixtures.

The scenario fixtures are session-scoped: building a scenario and
streaming weeks of telemetry is the expensive part of the suite, and the
objects are treated as read-only by tests (models and accumulators are
cheap to derive per-test).
"""

from __future__ import annotations

import pytest

from repro.experiments import EvaluationRunner, Scenario, ScenarioParams, WindowSpec


@pytest.fixture(scope="session")
def small_scenario() -> Scenario:
    """A small but fully-featured world shared by read-only tests."""
    return Scenario(ScenarioParams.small(seed=7, horizon_days=14))


@pytest.fixture(scope="session")
def small_result(small_scenario):
    """One full evaluation over the small scenario (10 train / 4 test days)."""
    runner = EvaluationRunner(small_scenario)
    return runner.run(WindowSpec(train_start_day=0, train_days=10,
                                 test_days=4))


@pytest.fixture(scope="session")
def trained_counts(small_scenario):
    """Training counts over the first 10 days of the small scenario."""
    runner = EvaluationRunner(small_scenario)
    return runner.feed_window(0, 10 * 24).counts
