"""Tests for the historical model."""

import pytest

from repro.core import FEATURES_A, FEATURES_AP, HistoricalModel
from repro.pipeline import FlowContext


def ctx(asn=1, prefix=10, loc=0, region=0, service=0):
    return FlowContext(asn, prefix, loc, region, service)


class TestTraining:
    def test_ranking_by_bytes(self):
        model = HistoricalModel(FEATURES_AP)
        model.observe(ctx(), 5, 100.0)
        model.observe(ctx(), 7, 300.0)
        model.observe(ctx(), 9, 50.0)
        preds = model.predict(ctx(), 3)
        assert [p.link_id for p in preds] == [7, 5, 9]

    def test_scores_are_byte_fractions(self):
        model = HistoricalModel(FEATURES_AP)
        model.observe(ctx(), 5, 100.0)
        model.observe(ctx(), 7, 300.0)
        preds = model.predict(ctx(), 2)
        assert preds[0].score == pytest.approx(0.75)
        assert preds[1].score == pytest.approx(0.25)

    def test_observations_accumulate(self):
        model = HistoricalModel(FEATURES_AP)
        model.observe(ctx(), 5, 100.0)
        model.observe(ctx(), 5, 100.0)
        model.observe(ctx(), 7, 150.0)
        assert model.predict(ctx(), 1)[0].link_id == 5

    def test_zero_bytes_ignored(self):
        model = HistoricalModel(FEATURES_AP)
        model.observe(ctx(), 5, 0.0)
        model.observe(ctx(), 5, -10.0)
        assert model.predict(ctx(), 1) == []
        assert model.size() == 0

    def test_observe_after_finalize_retrains(self):
        model = HistoricalModel(FEATURES_AP)
        model.observe(ctx(), 5, 100.0)
        model.finalize()
        assert model.predict(ctx(), 1)[0].link_id == 5
        model.observe(ctx(), 7, 500.0)
        assert model.predict(ctx(), 1)[0].link_id == 7

    def test_keep_top_truncates(self):
        model = HistoricalModel(FEATURES_AP, keep_top=2)
        for link, b in ((1, 100.0), (2, 80.0), (3, 60.0)):
            model.observe(ctx(), link, b)
        model.finalize()
        assert len(model.predict(ctx(), 5)) == 2

    def test_deterministic_tie_break(self):
        model = HistoricalModel(FEATURES_AP)
        model.observe(ctx(), 9, 100.0)
        model.observe(ctx(), 3, 100.0)
        assert model.predict(ctx(), 1)[0].link_id == 3


class TestNoTransferLearning:
    def test_unseen_tuple_no_prediction(self):
        """The defining limitation of the historical model (§3.3.1)."""
        model = HistoricalModel(FEATURES_AP)
        model.observe(ctx(prefix=10), 5, 100.0)
        assert model.predict(ctx(prefix=11), 3) == []
        assert not model.has_prediction(ctx(prefix=11))

    def test_coarser_features_do_transfer(self):
        model = HistoricalModel(FEATURES_A)
        model.observe(ctx(prefix=10), 5, 100.0)
        # different prefix, same AS+dest: the A model pools them
        assert model.predict(ctx(prefix=11), 1)[0].link_id == 5


class TestAvailabilityPrior:
    def test_unavailable_excluded(self):
        model = HistoricalModel(FEATURES_AP)
        model.observe(ctx(), 5, 300.0)
        model.observe(ctx(), 7, 100.0)
        preds = model.predict(ctx(), 2, unavailable=frozenset({5}))
        assert [p.link_id for p in preds] == [7]

    def test_all_unavailable_no_prediction(self):
        model = HistoricalModel(FEATURES_AP)
        model.observe(ctx(), 5, 300.0)
        assert model.predict(ctx(), 3, unavailable=frozenset({5})) == []
        assert not model.has_prediction(ctx(), frozenset({5}))

    def test_k_honoured_after_exclusion(self):
        model = HistoricalModel(FEATURES_AP)
        for link, b in ((1, 50.0), (2, 40.0), (3, 30.0), (4, 20.0)):
            model.observe(ctx(), link, b)
        preds = model.predict(ctx(), 2, unavailable=frozenset({1}))
        assert [p.link_id for p in preds] == [2, 3]


class TestIntrospection:
    def test_size_counts_tuples(self):
        model = HistoricalModel(FEATURES_AP)
        model.observe(ctx(prefix=1), 5, 1.0)
        model.observe(ctx(prefix=2), 5, 1.0)
        model.observe(ctx(prefix=2), 7, 1.0)
        assert model.size() == 2

    def test_bytes_for(self):
        model = HistoricalModel(FEATURES_AP)
        model.observe(ctx(), 5, 12.0)
        assert model.bytes_for(ctx()) == {5: 12.0}
        assert model.bytes_for(ctx(prefix=99)) == {}

    def test_default_name(self):
        assert HistoricalModel(FEATURES_AP).name == "Hist_AP"
        assert HistoricalModel(FEATURES_AP, name="X").name == "X"


class TestLazyReranking:
    def test_no_ranking_work_before_first_query(self):
        model = HistoricalModel(FEATURES_AP)
        model.observe(ctx(), 5, 10.0)
        assert model._ranked is None

    def test_group_key_is_feature_key(self):
        model = HistoricalModel(FEATURES_AP)
        assert model.group_key(ctx()) == model.feature_set.key(ctx())
