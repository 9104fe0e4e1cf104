"""The paper tables' models against the served ones and the record-path
trainer, to the bit.

``EvaluationRunner`` trains on the feed the service trains on
(``feed_window``: ``Scenario.aggregated_hours`` folded by
``DayCounts.add_hour``) and builds every historical model and oracle as
``TipsyService`` builds what it serves — ``from_arrays`` over the
table's projection — and Naive Bayes by walking the table's rows.  Three
references hold it (``tests/experiments/feed_reference.py``): the
streamed window walked key by key into a dict (the path the tables
trained on before); ``CountsAccumulator`` (``tests/core/counts_oracle.py``)
filled by ``consume_hour`` over the feed's records and handed to
``fit``; and a ``TipsyService`` fed the same hours.  Models must agree in
their counts (keys, link order and bytes) and in every ranking, scores
compared as ``float.hex``.

Hand mutants these tests kill (each applied, seen to fail here, and
reverted): the feed window dropping its last hour; the feed window
folding true rather than sampled bytes; the training rows projected
without first folding them onto (context, link); each slice projected
before the slices are folded; contexts grouped in sorted rather than
first-seen order.  ``tests/core/test_training.py`` kills
``DayCounts.top1_links`` ranking equal bytes by the higher link.
"""

from unittest import mock

import pytest

from repro.core import FEATURES_A, FEATURES_AL, FEATURES_AP
from repro.core.oracle import oracle_models
from repro.core.training import DayCounts
from repro.experiments import EvaluationRunner, WindowSpec
from repro.experiments import runner as runner_module
from repro.pipeline import FlowContext
from tests.core.counts_oracle import CountsAccumulator
from tests.core.historical_oracle import DictHistoricalModel
from tests.core.builders import actuals_table
from tests.core.naive_bayes_oracle import DictNaiveBayesModel
from tests.experiments.feed_reference import (
    assert_feed_is_the_walk, assert_same_tables,
    assert_scores_the_served_models, hexed)
from tests.experiments.stream_oracle import StreamWindows

GRAINS = (FEATURES_A, FEATURES_AP, FEATURES_AL)
TRAIN_HOURS = 10 * 24


@pytest.fixture(scope="module")
def runner(small_scenario):
    return EvaluationRunner(small_scenario)


def fitted_oracles(tables, feature_sets=GRAINS):
    """The oracles as they were: every slice's rows added in turn, then
    ``fit``."""
    counts = CountsAccumulator()
    for table in tables:
        for context, link, bytes_ in DayCounts.from_arrays(table).rows():
            counts.add(context, link, bytes_)
    oracles = [DictHistoricalModel(fs, name=f"Oracle_{fs.name}")
               for fs in feature_sets]
    counts.fit(oracles)
    return oracles


def hexed_rankings(model):
    return [(key, hexed(ranking)) for key, ranking in model.rankings().items()]


def assert_same_model(got, want):
    assert got.name == want.name
    assert_same_tables(got.to_arrays(), want.to_arrays())
    assert hexed_rankings(got) == hexed_rankings(want), want.name


class TestTraining:
    def test_feed_counts_are_the_streamed_walk(self, runner):
        """Same keys, same bytes, same byte-dominant links; row order is
        not compared, because the feed's hour is grouped by (context,
        link) and the stream's by flow row (see ``feed_reference``)."""
        counts, _walked = assert_feed_is_the_walk(runner, 0, TRAIN_HOURS)
        # flows share contexts, so (row, link) keys merge in the fold
        total = StreamWindows(runner.scenario).collect_window(
            0, TRAIN_HOURS).total
        assert len(counts) < len(total["value"])

    def test_build_models_equal_fit(self, runner):
        built = {model.name: model for model in runner.build_models(
            runner.feed_window(0, TRAIN_HOURS).counts,
            include_naive_bayes=True)}
        reference = CountsAccumulator()
        for columns in runner.scenario.aggregated_hours(0, TRAIN_HOURS):
            reference.consume_hour(columns.hour, columns.to_records())
        hists = [DictHistoricalModel(fs) for fs in GRAINS]
        nbs = [DictNaiveBayesModel(FEATURES_A),
               DictNaiveBayesModel(FEATURES_AL)]
        reference.fit(hists + nbs)
        for want in hists:
            assert_same_model(built[want.name], want)
        contexts = list(reference.actuals()) + [FlowContext(1, 2, 3, 4, 5)]
        down = frozenset(runner.scenario.wan.link_ids[:3])
        for want in nbs:
            got = built[want.name]
            for context in contexts:
                for unavailable in (frozenset(), down):
                    assert (hexed(got.predict(context, 5, unavailable))
                            == hexed(want.predict(context, 5, unavailable)))

    @pytest.mark.parametrize("start_day", [0, 3])
    def test_scores_the_served_models(self, runner, start_day):
        assert_scores_the_served_models(runner, start_day, 7)


class TestOracles:
    def test_each_blocks_oracles_equal_fit(self, small_scenario):
        """Every block ``run`` and ``run_staleness`` score: its oracles
        are the ones ``fit`` trains on that block's slices."""
        runner = EvaluationRunner(small_scenario)
        blocks = []

        def recording(tables):
            tables = list(tables)
            blocks.append((tables, oracle_models(tables)))
            return blocks[-1][1]

        with mock.patch.object(runner_module, "oracle_models", recording):
            runner.run(WindowSpec(0, 10, 4))
            runner.run_staleness(0, 8, 2)
        assert len(blocks) == 4 + 2
        # a block's rows stack its down-sets: some (context, link) keys
        # recur, so the oracles' fold adds across down-sets
        stacked = [list(zip(*(table[f"k{i}"].tolist() for i in range(6))))
                   for tables, _ in blocks for table in tables]
        assert max(len(keys) - len(set(keys)) for keys in stacked) > 0
        for tables, oracles in blocks:
            want = fitted_oracles(tables)
            assert len(oracles) == len(want)
            for got, expected in zip(oracles, want):
                assert_same_model(got, expected)

    def test_sums_associate_as_the_walk_across_slices(self):
        """Three contexts on one AP key (they differ only in location)
        across two slices, with bytes chosen so each other association
        of the link-5 sum rounds differently: 1 + 2^53 rounds to 2^53,
        so the exact walk's (1 + 2^53) + 1 + 1 stays 2^53 while any
        order that adds two of the 1.0s first does not."""
        c_a, c_b, c_c = (FlowContext(1, 7, loc, 0, 0) for loc in (2, 0, 1))
        slices = [actuals_table(actuals) for actuals in (
            {c_a: {9: 1.0, 5: 1.0}, c_b: {5: 1.0}},
            {c_c: {5: 1.0}, c_a: {5: 2.0 ** 53}})]
        got = oracle_models(slices)
        for built, want in zip(got, fitted_oracles(slices)):
            assert_same_model(built, want)
        ap = got[GRAINS.index(FEATURES_AP)]
        assert ap.bytes_for(c_b) == {9: 1.0, 5: 2.0 ** 53}

    def test_feature_sets_and_empty_maps(self):
        context = FlowContext(1, 7, 0, 0, 0)
        only_al = oracle_models([actuals_table({}),
                                 actuals_table({context: {3: 4.0}})],
                                (FEATURES_AL,))
        assert [m.name for m in only_al] == ["Oracle_AL"]
        assert only_al[0].predict(context, 1)[0].link_id == 3
        assert all(m.size() == 0 for m in oracle_models([]))

