"""The checks that the paper tables train on what the product serves.

``EvaluationRunner.feed_window`` folds the hours of
``Scenario.aggregated_hours`` into one ``DayCounts``, as
``TipsyService.ingest_hour`` folds each day's.  Two references hold it:

* :func:`assert_feed_is_the_walk` — the streamed ground truth
  (``collect_window``'s (flow row, link) table, kept in
  ``tests/experiments/stream_oracle.py``) mapped to flow contexts
  and added key by key into a dict, the path the tables trained on
  before.  The two agree as a key -> value mapping; only their row
  order differs, since the feed groups an hour's rows by the join's
  (context, link) while the stream keeps flow-row order.  The sums are
  nevertheless equal to the bit: every sampled byte count is a Poisson
  count times ``sampling_rate * packet_bytes`` (4 096 * 1 000 =
  2**15 * 125), so each partial sum is a multiple of 2**15 and, while
  the window total stays below 2**68, float64 adds it exactly in any
  order.  The check asserts that premise too.
* :func:`assert_scores_the_served_models` — a ``TipsyService`` fed the
  window's hours and the hour that closes it: the models the runner
  scores are the ones it serves, column for column and answer for answer.

``tests/experiments/test_runner_counts.py`` runs both on the small world,
``benchmarks/test_feed_training.py`` on the paper world.
"""

from __future__ import annotations

import numpy as np

from repro.core import ServiceConfig, TipsyService
from tests.core.counts_oracle import CountsAccumulator
from tests.experiments.stream_oracle import StreamWindows

#: the window total below which float64 sums of multiples of 2**15 are exact
EXACT_BELOW = 2.0 ** 68


def walked_counts(runner, acc):
    """The streamed window's (flow row, link) table added key by key
    into the dict, each row named by its flow's context."""
    contexts = runner.scenario.flow_contexts
    counts = CountsAccumulator()
    for row, link, bytes_ in zip(acc.total["k0"].tolist(),
                                 acc.total["k1"].tolist(),
                                 acc.total["value"].tolist()):
        counts.add(contexts[row], link, bytes_)
    return counts


def hexed(predictions):
    return [(p.link_id, p.score.hex()) for p in predictions]


def assert_same_tables(got, want):
    assert list(got) == list(want)
    for name, column in want.items():
        assert got[name].dtype == column.dtype
        assert got[name].tobytes() == column.tobytes(), name


def assert_feed_is_the_walk(runner, lo, hi):
    """The feed window's counts equal the streamed walk as a mapping."""
    scenario = runner.scenario
    counts = runner.feed_window(lo, hi).counts
    walked = walked_counts(
        runner, StreamWindows(scenario).collect_window(lo, hi))
    values = counts.to_arrays()["value"]
    quantum = scenario.params.sampling_rate * scenario.exporter.packet_bytes
    assert not np.fmod(values, quantum).any()
    assert values.sum() < EXACT_BELOW
    got = {(context, link): bytes_.hex()
           for context, link, bytes_ in counts.rows()}
    assert got == {key: bytes_.hex() for key, bytes_ in walked.counts.items()}
    assert counts.top1_links() == walked.top1_links()
    return counts, walked


def assert_scores_the_served_models(runner, start_day, days, k=3):
    """The runner's models over ``days`` days from ``start_day`` are the
    service's: A/AP/AL ``to_arrays()`` byte for byte, AL+G and AP/AL/A
    answers ``float.hex``-equal for every flow context under no prior,
    the busiest link down and the three busiest down."""
    scenario = runner.scenario
    lo, hi = start_day * 24, (start_day + days) * 24
    window = runner.feed_window(lo, hi)
    built = {model.name: model
             for model in runner.build_models(window.counts)}
    service = TipsyService(scenario.wan,
                           ServiceConfig(training_window_days=days))
    # the first hour of the next day closes the window and retrains
    for columns in scenario.aggregated_hours(lo, hi + 1):
        service.ingest_hour(columns.hour, columns)
    assert service.trained_days == tuple(range(start_day, start_day + days))
    for name in ("Hist_A", "Hist_AP", "Hist_AL"):
        assert_same_tables(built[name].to_arrays(),
                           service.model(name).to_arrays())
    busiest = np.argsort(-window.link_bytes.sum(axis=1), kind="stable")
    priors = (frozenset(), frozenset(busiest[:1].tolist()),
              frozenset(busiest[:3].tolist()))
    contexts = list(dict.fromkeys(scenario.flow_contexts))
    for name in ("Hist_AL+G", "Hist_AP/AL/A"):
        got, want = built[name], service.model(name)
        for unavailable in priors:
            assert ([hexed(got.predict(context, k, unavailable))
                     for context in contexts]
                    == [hexed(want.predict(context, k, unavailable))
                        for context in contexts]), (name, unavailable)
