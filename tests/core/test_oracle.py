"""Tests for the restricted-k oracle."""

import pytest

from repro.core import FEATURES_AP, OracleModel, evaluate_accuracy
from repro.pipeline import FlowContext
from tests.core.builders import actuals_table, from_rows


def ctx(prefix):
    return FlowContext(1, prefix, 0, 0, 0)


class TestOracle:
    def _actuals(self):
        return {
            ctx(1): {5: 70.0, 7: 20.0, 9: 10.0},
            ctx(2): {3: 100.0},
        }

    def _oracle(self, actuals):
        return from_rows(OracleModel, FEATURES_AP, (
            (context, link, bytes_) for context, by_link in actuals.items()
            for link, bytes_ in by_link.items()))

    def test_is_a_historical_model_over_test_data(self):
        actuals = self._actuals()
        oracle = self._oracle(actuals)
        preds = oracle.predict(ctx(1), 3)
        assert [p.link_id for p in preds] == [5, 7, 9]

    def test_restriction_to_k_loses_tail_bytes(self):
        actuals = self._actuals()
        oracle = self._oracle(actuals)
        acc1 = evaluate_accuracy(actuals_table(actuals), oracle, 1)
        acc3 = evaluate_accuracy(actuals_table(actuals), oracle, 3)
        assert acc1 == pytest.approx(170.0 / 200.0)
        assert acc3 == pytest.approx(1.0)

    def test_name(self):
        assert self._oracle({}).name == "Oracle_AP"

    def test_from_arrays_keeps_the_oracle_name(self):
        """The columnar build inherited from ``HistoricalModel`` builds an
        oracle, under its default name or the one given."""
        observed = self._oracle(self._actuals())
        assert type(observed) is OracleModel
        built = OracleModel.from_arrays(observed.to_arrays(), FEATURES_AP)
        assert type(built) is OracleModel and built.name == "Oracle_AP"
        assert built.rankings() == observed.rankings()
        named = OracleModel.from_arrays(observed.to_arrays(), FEATURES_AP,
                                        name="top2")
        assert named.name == "top2"
        assert named.rankings() == observed.rankings()
