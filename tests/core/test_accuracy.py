"""Tests for the byte-weighted top-k accuracy metric (§5.1.2)."""

import pytest

from repro.core import (
    FEATURES_AP,
    HistoricalModel,
    OracleModel,
    Prediction,
    evaluate_accuracy,
    matched_bytes,
    volume_matched_bytes,
)
from repro.pipeline import FlowContext
from tests.core.builders import from_rows


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

    def _oracle(self, actuals):
        return from_rows(OracleModel, FEATURES_AP, (
            (context, link, b) for context, by_link in actuals.items()
            for link, b in by_link.items()))

    def test_oracle_unrestricted_is_perfect(self):
        actuals = self._actuals()
        oracle = self._oracle(actuals)
        assert evaluate_accuracy(actuals, oracle, k=10) == pytest.approx(1.0)

    def test_top1_oracle_matches_dominant_mass(self):
        actuals = self._actuals()
        oracle = self._oracle(actuals)
        # top-1: 80 of flow 1 + 100 of flow 2 = 180/200
        assert evaluate_accuracy(actuals, oracle, k=1) == pytest.approx(0.9)

    def test_empty_actuals(self):
        model = from_rows(HistoricalModel, FEATURES_AP, ())
        assert evaluate_accuracy({}, model, 3) == 0.0

    def test_unavailable_prior_passed_through(self):
        actuals = {ctx(1): {7: 100.0}}
        model = from_rows(HistoricalModel, FEATURES_AP, (
            (ctx(1), 5, 100.0),  # predicts the dead link
            (ctx(1), 7, 10.0)))
        without = evaluate_accuracy(actuals, model, 1)
        with_prior = evaluate_accuracy(actuals, model, 1,
                                       unavailable=frozenset({5}))
        assert without == 0.0
        assert with_prior == pytest.approx(1.0)

    def test_model_with_no_prediction_scores_zero(self):
        actuals = {ctx(1): {5: 100.0}}
        model = from_rows(HistoricalModel, FEATURES_AP, ())
        assert evaluate_accuracy(actuals, model, 3) == 0.0

    def test_strict_volume_variant(self):
        actuals = {ctx(1): {5: 100.0}}
        model = from_rows(HistoricalModel, FEATURES_AP, (
            (ctx(1), 5, 50.0), (ctx(1), 7, 50.0)))  # model thinks 50/50
        loose = evaluate_accuracy(actuals, model, 2)
        strict = evaluate_accuracy(actuals, model, 2, strict_volumes=True)
        assert loose == pytest.approx(1.0)
        assert strict == pytest.approx(0.5)
