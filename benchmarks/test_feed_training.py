"""The paper tables train on what serves, on the paper-scale world.

The paper-world run of the tier-1 checks in
``tests/experiments/test_runner_counts.py`` (the references are in
``tests/experiments/feed_reference.py``): the three training weeks
``EvaluationRunner.run`` folds from the feed equal the streamed walk as
a key -> value mapping, with the same byte-dominant link per context,
and the models the tables score are the ones a ``TipsyService`` fed the
same hours serves, to the bit.
"""

from repro.experiments.benchlib import PAPER_WINDOW, print_block
from tests.experiments.feed_reference import (
    assert_feed_is_the_walk, assert_scores_the_served_models)


def test_feed_counts_are_the_streamed_walk(paper_runner):
    counts, walked = assert_feed_is_the_walk(paper_runner,
                                             *PAPER_WINDOW.train_hours)
    print_block(
        "== training window: the feed vs the streamed walk ==\n"
        f"{len(counts)} (context, link) keys, "
        f"{len(counts.top1_links())} contexts: every value and every "
        "byte-dominant link equal; row order differs")
    assert len(walked) == len(counts)


def test_scores_the_served_models(paper_runner):
    assert_scores_the_served_models(paper_runner,
                                    PAPER_WINDOW.train_start_day,
                                    PAPER_WINDOW.train_days)
