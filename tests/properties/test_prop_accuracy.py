"""Property-based tests on the accuracy metric (§5.1.2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FEATURES_AP,
    HistoricalModel,
    OracleModel,
    evaluate_accuracy,
    matched_bytes,
    volume_matched_bytes,
    Prediction,
)
from repro.pipeline import FlowContext
from tests.core.builders import from_rows


actuals_strategy = st.dictionaries(
    keys=st.integers(min_value=0, max_value=8).map(
        lambda p: FlowContext(1, p, 0, 0, 0)),
    values=st.dictionaries(
        keys=st.integers(min_value=0, max_value=9),
        values=st.floats(min_value=0.01, max_value=1e9),
        min_size=1, max_size=5),
    min_size=1, max_size=8,
)


def oracle_for(actuals):
    return from_rows(OracleModel, FEATURES_AP, (
        (context, link, b) for context, by_link in actuals.items()
        for link, b in by_link.items()))


class TestMetricProperties:
    @given(actuals_strategy, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60)
    def test_bounded(self, actuals, k):
        oracle = oracle_for(actuals)
        acc = evaluate_accuracy(actuals, oracle, k)
        assert 0.0 <= acc <= 1.0 + 1e-9

    @given(actuals_strategy)
    @settings(max_examples=60)
    def test_monotone_in_k(self, actuals):
        oracle = oracle_for(actuals)
        accs = [evaluate_accuracy(actuals, oracle, k) for k in (1, 2, 3, 20)]
        assert accs == sorted(accs)

    @given(actuals_strategy)
    @settings(max_examples=60)
    def test_unrestricted_oracle_perfect(self, actuals):
        oracle = oracle_for(actuals)
        assert abs(evaluate_accuracy(actuals, oracle, 10**6) - 1.0) < 1e-9

    @given(actuals_strategy)
    @settings(max_examples=60)
    def test_strict_never_exceeds_loose(self, actuals):
        oracle = oracle_for(actuals)
        for k in (1, 3):
            strict = evaluate_accuracy(actuals, oracle, k,
                                       strict_volumes=True)
            loose = evaluate_accuracy(actuals, oracle, k)
            assert strict <= loose + 1e-9

    @given(actuals_strategy)
    @settings(max_examples=40)
    def test_untrained_model_scores_zero(self, actuals):
        empty = from_rows(HistoricalModel, FEATURES_AP, ())
        assert evaluate_accuracy(actuals, empty, 3) == 0.0


class TestMatchers:
    by_link = st.dictionaries(st.integers(0, 9),
                              st.floats(min_value=0.0, max_value=1e6),
                              min_size=1, max_size=6)
    preds = st.lists(
        st.tuples(st.integers(0, 9), st.floats(min_value=0.0, max_value=1.0)),
        max_size=4).map(lambda ps: [Prediction(l, s) for l, s in ps])

    @given(by_link, preds)
    @settings(max_examples=80)
    def test_matched_bounded_by_total(self, by_link, preds):
        # dedupe predicted links (the model contract guarantees this)
        seen = set()
        unique = [p for p in preds
                  if not (p.link_id in seen or seen.add(p.link_id))]
        total = sum(by_link.values())
        assert matched_bytes(by_link, unique) <= total + 1e-6
        assert volume_matched_bytes(by_link, unique) <= total + 1e-6

    @given(by_link, preds)
    @settings(max_examples=80)
    def test_volume_variant_dominated(self, by_link, preds):
        seen = set()
        unique = [p for p in preds
                  if not (p.link_id in seen or seen.add(p.link_id))]
        assert (volume_matched_bytes(by_link, unique)
                <= matched_bytes(by_link, unique) + 1e-6)
