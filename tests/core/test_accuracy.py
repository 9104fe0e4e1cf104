"""Tests for the byte-weighted top-k accuracy metric (§5.1.2)."""

import numpy as np
import pytest

from repro.core import (
    FEATURES_AP,
    ActualsTable,
    HistoricalModel,
    OracleModel,
    Prediction,
    evaluate_accuracy,
)
from repro.pipeline import FlowContext
from tests.core.accuracy_oracle import matched_bytes, volume_matched_bytes
from tests.core.builders import actuals_table, from_rows


def ctx(prefix):
    return FlowContext(1, prefix, 0, 0, 0)


class TestMatchedBytes:
    def test_link_matching(self):
        actual = {5: 100.0, 7: 50.0, 9: 10.0}
        preds = [Prediction(5, 0.6), Prediction(9, 0.1)]
        assert matched_bytes(actual, preds) == 110.0

    def test_volume_matching_penalises_misallocation(self):
        actual = {5: 100.0, 7: 60.0}
        # right links, but volumes swapped
        preds = [Prediction(7, 100 / 160), Prediction(5, 60 / 160)]
        strict = volume_matched_bytes(actual, preds)
        assert strict < matched_bytes(actual, preds)
        assert strict == pytest.approx(60.0 + 60.0)


class TestEvaluateAccuracy:
    def _actuals(self):
        return {
            ctx(1): {5: 80.0, 7: 20.0},
            ctx(2): {9: 100.0},
        }

    @staticmethod
    def evaluate(actuals, model, k, **kwargs):
        return evaluate_accuracy(actuals_table(actuals), model, k, **kwargs)

    def _oracle(self, actuals):
        return from_rows(OracleModel, FEATURES_AP, (
            (context, link, b) for context, by_link in actuals.items()
            for link, b in by_link.items()))

    def test_oracle_unrestricted_is_perfect(self):
        actuals = self._actuals()
        oracle = self._oracle(actuals)
        assert self.evaluate(actuals, oracle, 10) == pytest.approx(1.0)

    def test_top1_oracle_matches_dominant_mass(self):
        actuals = self._actuals()
        oracle = self._oracle(actuals)
        # top-1: 80 of flow 1 + 100 of flow 2 = 180/200
        assert self.evaluate(actuals, oracle, 1) == pytest.approx(0.9)

    def test_empty_actuals(self):
        model = from_rows(HistoricalModel, FEATURES_AP, ())
        assert self.evaluate({}, model, 3) == 0.0

    @pytest.mark.parametrize("k", [0, -3])
    @pytest.mark.parametrize("actuals", [{}, {ctx(1): {5: 1.0}}])
    def test_k_below_one_raises_before_any_row(self, actuals, k):
        """Empty actuals too: a ``k`` below 1 is a ``ValueError``, never
        a score of 0.0."""
        model = from_rows(HistoricalModel, FEATURES_AP, ((ctx(1), 5, 1.0),))
        with pytest.raises(ValueError, match="k must be at least 1"):
            self.evaluate(actuals, model, k)
        with pytest.raises(ValueError, match="k must be at least 1"):
            ActualsTable([(actuals_table(actuals), frozenset())]).hits(
                model, k)

    def test_unavailable_prior_passed_through(self):
        actuals = {ctx(1): {7: 100.0}}
        model = from_rows(HistoricalModel, FEATURES_AP, (
            (ctx(1), 5, 100.0),  # predicts the dead link
            (ctx(1), 7, 10.0)))
        without = self.evaluate(actuals, model, 1)
        with_prior = self.evaluate(actuals, model, 1,
                                       unavailable=frozenset({5}))
        assert without == 0.0
        assert with_prior == pytest.approx(1.0)

    def test_model_with_no_prediction_scores_zero(self):
        actuals = {ctx(1): {5: 100.0}}
        model = from_rows(HistoricalModel, FEATURES_AP, ())
        assert self.evaluate(actuals, model, 3) == 0.0

    def test_strict_volume_variant(self):
        actuals = {ctx(1): {5: 100.0}}
        model = from_rows(HistoricalModel, FEATURES_AP, (
            (ctx(1), 5, 50.0), (ctx(1), 7, 50.0)))  # model thinks 50/50
        loose = self.evaluate(actuals, model, 2)
        strict = self.evaluate(actuals, model, 2, strict_volumes=True)
        assert loose == pytest.approx(1.0)
        assert strict == pytest.approx(0.5)


class TestActualsTable:
    """The columnar scorer's mechanics: slices, priors, padding, masks."""

    def _model(self):
        return from_rows(HistoricalModel, FEATURES_AP, (
            (ctx(1), 5, 60.0), (ctx(1), 7, 30.0), (ctx(1), 0, 10.0),
            (ctx(2), 9, 10.0)))

    def test_each_slice_is_scored_under_its_own_prior(self):
        table = actuals_table({ctx(1): {7: 100.0}})
        actuals = ActualsTable([(table, frozenset()),
                                (table, frozenset({5}))])
        hits = actuals.hits(self._model(), 1)
        assert hits.tolist() == [False, True]
        assert actuals.score(self._model(), 1) == (100.0, 200.0)

    def test_padding_never_matches_link_0(self):
        """A context answered with fewer links than the widest answer is
        padded with -1, which no link id is."""
        table = actuals_table({ctx(2): {0: 10.0}, ctx(1): {0: 10.0}})
        links, shares = ActualsTable([(table, frozenset())]).predictions(
            self._model(), 3)
        assert links.tolist() == [[9, -1, -1], [5, 7, 0]]
        assert shares[0].tolist() == [1.0, 0.0, 0.0]
        assert evaluate_accuracy(table, self._model(), 3) == 0.5

    def test_rows_restrict_the_questions_asked(self):
        table = actuals_table({ctx(1): {5: 10.0}, ctx(2): {9: 10.0}})
        actuals = ActualsTable([(table, frozenset())])
        rows = np.array([False, True])
        links, _shares = actuals.predictions(self._model(), 1, rows)
        assert links.tolist() == [[-1], [9]]
        assert actuals.hits(self._model(), 1, rows).tolist() == [False, True]

    def test_one_answer_per_key(self):
        """Contexts that differ only outside the model's key fields share
        one ``predict`` call per slice."""
        calls = []
        model = self._model()
        predict = model.predict

        def counting(context, k, unavailable=frozenset()):
            calls.append((context, unavailable))
            return predict(context, k, unavailable)

        model.predict = counting
        elsewhere = FlowContext(1, 1, 3, 0, 0)  # AP ignores the location
        table = actuals_table({ctx(1): {5: 1.0}, elsewhere: {7: 1.0}})
        actuals = ActualsTable([(table, frozenset()),
                                (table, frozenset({5}))])
        assert actuals.hits(model, 2).tolist() == [True, True, False, True]
        assert calls == [(ctx(1), frozenset()), (ctx(1), frozenset({5}))]
