"""Tests for the Naive Bayes models (Appendix A)."""

import numpy as np
import pytest

from repro.core import FEATURES_A, FEATURES_AL, NaiveBayesModel
from repro.core.training import DayCounts
from repro.pipeline import FlowContext
from tests.core.builders import from_rows


def ctx(asn=1, prefix=10, loc=0, region=0, service=0):
    return FlowContext(asn, prefix, loc, region, service)


def nb(features, *rows):
    return from_rows(NaiveBayesModel, features, rows)


class TestBasics:
    def test_majority_link_wins(self):
        model = nb(FEATURES_A, (ctx(), 5, 900.0), (ctx(), 7, 100.0))
        preds = model.predict(ctx(), 2)
        assert preds[0].link_id == 5
        assert preds[0].score > preds[1].score

    def test_scores_normalised(self):
        model = nb(FEATURES_A, (ctx(), 5, 900.0), (ctx(), 7, 100.0))
        preds = model.predict(ctx(), 2)
        assert sum(p.score for p in preds) == pytest.approx(1.0)

    def test_empty_model_no_prediction(self):
        assert nb(FEATURES_A).predict(ctx(), 3) == []

    def test_default_name(self):
        assert nb(FEATURES_AL).name == "NB_AL"

    def test_builds_from_the_finest_grain_only(self):
        """The conditionals are read off the flow-context columns, so a
        table projected onto a grain is refused, not misread."""
        counts = DayCounts.fold([ctx()], [5], [1.0])
        with pytest.raises(KeyError):
            NaiveBayesModel.from_arrays(counts.project(FEATURES_A),
                                        FEATURES_A)


class TestFromArrays:
    @pytest.mark.parametrize("second", [0.0, -40.0, float("nan")])
    def test_refuses_bytes_that_are_not_positive(self, second):
        """A count that is not positive is no traffic, so the build must
        not count one toward a prior or a conditional."""
        arrays = DayCounts.fold([ctx(), ctx()], [5, 7], [1.0, 1.0]).to_arrays()
        arrays["value"] = np.array([1.0, second])
        with pytest.raises(ValueError, match="finite and positive"):
            NaiveBayesModel.from_arrays(arrays, FEATURES_A)

    def test_refuses_misaligned_columns(self):
        """A one-row feature column would broadcast against the links;
        it is refused rather than read as every row's value."""
        arrays = DayCounts.fold([ctx(asn=1), ctx(asn=2)], [5, 7],
                                [3.0, 1.0]).to_arrays()
        arrays["k0"] = arrays["k0"][:1]
        with pytest.raises(ValueError, match="misaligned"):
            NaiveBayesModel.from_arrays(arrays, FEATURES_A)

    def test_laplace_smoothing_by_hand(self):
        """Every (value, link) count starts at one byte: AS 1 was never
        seen on link 7, yet link 7 keeps the share the smoothed
        conditional gives it, (0 + 1) / (1 + 2 values)."""
        model = nb(FEATURES_A, (ctx(asn=1), 5, 3.0), (ctx(asn=2), 7, 1.0))
        # prior 3/4, 1/4; AS 1 given link 5 is (3 + 1) / (3 + 2), given
        # link 7 is 1/3; region and service, one value each, are 1 on both
        five, seven = 0.75 * 4 / 5, 0.25 * 1 / 3
        preds = model.predict(ctx(asn=1), 2)
        assert [p.link_id for p in preds] == [5, 7]
        assert [p.score for p in preds] == pytest.approx(
            [five / (five + seven), seven / (five + seven)])


class TestTransferLearning:
    def test_generalises_across_tuples(self):
        """NB predicts for unseen tuples from per-feature conditionals —
        the paper's reason for considering it despite lower accuracy."""
        model = nb(FEATURES_AL,
                   # AS 1 traffic from loc 0 to region 0 lands on link 5
                   (ctx(asn=1, loc=0, region=0), 5, 500.0),
                   # AS 2 traffic to region 1 lands on link 7
                   (ctx(asn=2, loc=1, region=1), 7, 500.0))
        # unseen combination: AS 1 from loc 1 — still scores both links,
        # favouring link 5 via the AS conditional
        unseen = ctx(asn=1, loc=1, region=0)
        preds = model.predict(unseen, 2)
        assert preds
        assert preds[0].link_id == 5

    def test_fully_unknown_context_no_prediction(self):
        model = nb(FEATURES_A, (ctx(asn=1), 5, 100.0))
        totally_new = ctx(asn=99, region=42, service=17)
        assert model.predict(totally_new, 3) == []


class TestAvailabilityPrior:
    def test_unavailable_masked(self):
        model = nb(FEATURES_A, (ctx(), 5, 900.0), (ctx(), 7, 100.0))
        preds = model.predict(ctx(), 2, unavailable=frozenset({5}))
        assert [p.link_id for p in preds] == [7]

    def test_all_unavailable(self):
        model = nb(FEATURES_A, (ctx(), 5, 100.0))
        assert model.predict(ctx(), 2, unavailable=frozenset({5})) == []


class TestWeighting:
    def test_byte_weighting_dominates_counts(self):
        # many small observations on 5, one huge on 7
        model = nb(FEATURES_A, *[(ctx(prefix=p), 5, 1.0) for p in range(10)],
                   (ctx(), 7, 1e6))
        assert model.predict(ctx(), 1)[0].link_id == 7

    def test_size_reports_entries(self):
        """Two links, and per feature the (value, link) pairs seen: the
        two ASes on their own links, one region and one service on
        both."""
        model = nb(FEATURES_A, (ctx(asn=1), 5, 1.0), (ctx(asn=2), 7, 1.0))
        assert model.size() == 2 + 2 + 2 + 2
