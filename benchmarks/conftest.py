"""Shared state for the benchmark harness.

The full-size scenario and its evaluation are built once per session;
individual benchmarks print their table/figure next to the paper's
numbers and time the operation the paper's Table 3 / Table 11 cost model
describes.  Expect the first benchmark to take a few minutes while the
session fixtures warm up.
"""

from __future__ import annotations

import os
import sys

import pytest

# make the suite (and the test references some benchmarks rerun at
# paper scale) importable no matter where pytest was started from
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_REPO_ROOT, "src"), _REPO_ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.experiments import (  # noqa: E402
    EvaluationRunner,
    Scenario,
    ScenarioParams,
)
from repro.experiments.benchlib import PAPER_WINDOW  # noqa: E402


@pytest.fixture(scope="session")
def paper_scenario() -> Scenario:
    """The full-size synthetic world used for the headline tables."""
    return Scenario(ScenarioParams(seed=1))


@pytest.fixture(scope="session")
def paper_runner(paper_scenario) -> EvaluationRunner:
    return EvaluationRunner(paper_scenario)


@pytest.fixture(scope="session")
def paper_result(paper_runner):
    """Tables 4-7 evaluation (3 weeks train / 1 week test)."""
    return paper_runner.run(PAPER_WINDOW)


@pytest.fixture(scope="session")
def paper_result_nb(paper_runner):
    """Appendix A evaluation including the Naive Bayes models."""
    return paper_runner.run(PAPER_WINDOW, include_naive_bayes=True)


@pytest.fixture(scope="session")
def medium_scenario() -> Scenario:
    """Mid-size world for the Appendix B sweeps (many re-runs)."""
    return Scenario(ScenarioParams.medium(seed=2))


@pytest.fixture(scope="session")
def paper_train_counts(paper_runner):
    lo, hi = PAPER_WINDOW.train_hours
    return paper_runner.feed_window(lo, hi).counts

