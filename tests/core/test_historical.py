"""Tests for the historical model."""

import math

import numpy as np
import pytest

from repro.core import FEATURES_A, FEATURES_AP, HistoricalModel
from repro.pipeline import FlowContext
from tests.core.builders import from_rows


def ctx(asn=1, prefix=10, loc=0, region=0, service=0):
    return FlowContext(asn, prefix, loc, region, service)


def hist(features, *rows, name=None):
    return from_rows(HistoricalModel, features, rows, name)


class TestTraining:
    def test_ranking_by_bytes(self):
        model = hist(FEATURES_AP, (ctx(), 5, 100.0), (ctx(), 7, 300.0),
                     (ctx(), 9, 50.0))
        preds = model.predict(ctx(), 3)
        assert [p.link_id for p in preds] == [7, 5, 9]

    def test_scores_are_byte_fractions(self):
        model = hist(FEATURES_AP, (ctx(), 5, 100.0), (ctx(), 7, 300.0))
        preds = model.predict(ctx(), 2)
        assert preds[0].score == pytest.approx(0.75)
        assert preds[1].score == pytest.approx(0.25)

    def test_observations_accumulate(self):
        model = hist(FEATURES_AP, (ctx(), 5, 100.0), (ctx(), 5, 100.0),
                     (ctx(), 7, 150.0))
        assert model.predict(ctx(), 1)[0].link_id == 5

    def test_deterministic_tie_break(self):
        model = hist(FEATURES_AP, (ctx(), 9, 100.0), (ctx(), 3, 100.0))
        assert model.predict(ctx(), 1)[0].link_id == 3


class TestFromArrays:
    @pytest.mark.parametrize("second", [0.0, math.nan, -40.0])
    def test_refuses_bytes_that_are_not_positive(self, second):
        """A count that is not positive is no traffic, so the build must
        not rank one: zero, NaN and negative bytes are refused, not
        scored 0.0, nan or -0.667."""
        arrays = {"k0": np.array([1, 1]), "k1": np.array([0, 0]),
                  "k2": np.array([0, 0]), "k3": np.array([5, 7]),
                  "value": np.array([100.0, second])}
        with pytest.raises(ValueError, match="finite and positive"):
            HistoricalModel.from_arrays(arrays, FEATURES_A)

    def test_keeps_first_seen_order(self):
        arrays = {"k0": np.array([2, 1, 2]), "k1": np.array([0, 0, 0]),
                  "k2": np.array([0, 0, 0]), "k3": np.array([7, 5, 5]),
                  "value": np.array([1.0, 4.0, 3.0])}
        model = HistoricalModel.from_arrays(arrays, FEATURES_A)
        assert model.tuples() == ((2, 0, 0), (1, 0, 0))
        assert model.to_arrays()["k3"].tolist() == [7, 5, 5]
        assert model.predict(ctx(asn=2), 2) == [(5, 0.75), (7, 0.25)]


class TestNoTransferLearning:
    def test_unseen_tuple_no_prediction(self):
        """The defining limitation of the historical model (§3.3.1)."""
        model = hist(FEATURES_AP, (ctx(prefix=10), 5, 100.0))
        assert model.predict(ctx(prefix=11), 3) == []

    def test_coarser_features_do_transfer(self):
        model = hist(FEATURES_A, (ctx(prefix=10), 5, 100.0))
        # different prefix, same AS+dest: the A model pools them
        assert model.predict(ctx(prefix=11), 1)[0].link_id == 5


class TestAvailabilityPrior:
    def test_unavailable_excluded(self):
        model = hist(FEATURES_AP, (ctx(), 5, 300.0), (ctx(), 7, 100.0))
        preds = model.predict(ctx(), 2, unavailable=frozenset({5}))
        assert [p.link_id for p in preds] == [7]

    def test_all_unavailable_no_prediction(self):
        model = hist(FEATURES_AP, (ctx(), 5, 300.0))
        assert model.predict(ctx(), 3, unavailable=frozenset({5})) == []

    def test_k_honoured_after_exclusion(self):
        model = hist(FEATURES_AP, *((ctx(), link, b) for link, b in (
            (1, 50.0), (2, 40.0), (3, 30.0), (4, 20.0))))
        preds = model.predict(ctx(), 2, unavailable=frozenset({1}))
        assert [p.link_id for p in preds] == [2, 3]


class TestIntrospection:
    def test_size_counts_tuples(self):
        model = hist(FEATURES_AP, (ctx(prefix=1), 5, 1.0),
                     (ctx(prefix=2), 5, 1.0), (ctx(prefix=2), 7, 1.0))
        assert model.size() == 2

    def test_bytes_for(self):
        model = hist(FEATURES_AP, (ctx(), 5, 12.0))
        assert model.bytes_for(ctx()) == {5: 12.0}
        assert model.bytes_for(ctx(prefix=99)) == {}

    def test_default_name(self):
        assert hist(FEATURES_AP).name == "Hist_AP"
        assert hist(FEATURES_AP, name="X").name == "X"

    def test_group_key_is_feature_key(self):
        model = hist(FEATURES_AP)
        assert model.group_key(ctx()) == model.feature_set.key(ctx())


class TestLazyReranking:
    def test_no_ranking_work_before_first_query(self):
        """The build sorts the table but builds no ``Prediction``: a
        tuple's ranking is made when it is first asked for, kept, and
        handed out again on the next query."""
        model = hist(FEATURES_AP, (ctx(), 5, 10.0), (ctx(), 7, 30.0),
                     (ctx(prefix=11), 7, 1.0))
        assert model._slots == [None, None]
        first = model.predict(ctx(), 2)
        assert first == [(7, 0.75), (5, 0.25)]
        assert model._slots[1] is None
        again = model.predict(ctx(), 2)
        assert all(a is b for a, b in zip(again, first))


class TestTotals:
    """A share is bytes over its tuple's ``math.fsum`` total.  A table
    of integral byte counts whose longest tuple's total fits in int64
    adds them as integers and rounds once; any other table takes
    ``math.fsum`` per tuple of three or more links.  Both branches give
    per-tuple ``fsum`` shares to the bit."""

    @pytest.fixture()
    def fsums(self, monkeypatch):
        """The ``math.fsum`` calls a build makes."""
        calls = []
        fsum = math.fsum

        def counted(values):
            calls.append(len(values))
            return fsum(values)

        monkeypatch.setattr(math, "fsum", counted)
        return calls

    @staticmethod
    def assert_fsum_shares(model, contexts):
        for context in contexts:
            by_link = model.bytes_for(context)
            total = math.fsum(by_link.values())
            assert {p.link_id: p.score.hex()
                    for p in model.predict(context, len(by_link))} == {
                link: (bytes_ / total).hex()
                for link, bytes_ in by_link.items()}

    def test_integral_counts_add_exactly_above_two_to_the_53(self, fsums):
        # 2**53 + 3 is not a float: fsum rounds it once, to 2**53 + 4,
        # where a running float sum drops each 1.0 and stays at 2**53
        rows = [(ctx(), 5, 2.0 ** 53), (ctx(), 6, 1.0), (ctx(), 7, 1.0),
                (ctx(), 8, 1.0), (ctx(prefix=11), 5, 3.0),
                (ctx(prefix=11), 6, 2.0 ** 60), (ctx(prefix=12), 9, 7.0)]
        # numpy's float reduce of this tuple is 4 above its fsum
        rows += [(ctx(prefix=13), link, bytes_) for link, bytes_ in zip(
            range(5), (2.0 ** 53, 2.0 ** 53, 7.0, 7.0, 3.0))]
        model = hist(FEATURES_AP, *rows)
        assert fsums == []
        self.assert_fsum_shares(model, [ctx(), ctx(prefix=11),
                                        ctx(prefix=12), ctx(prefix=13)])
        assert model.predict(ctx(), 1)[0].score == 2.0 ** 53 / (2.0 ** 53 + 4)

    def test_a_total_past_int64_takes_fsum(self, fsums):
        rows = [(ctx(), link, 2.0 ** 62) for link in (5, 6, 7)]
        rows.append((ctx(prefix=11), 5, 1.0))
        model = hist(FEATURES_AP, *rows)
        assert fsums == [3]
        self.assert_fsum_shares(model, [ctx(), ctx(prefix=11)])

    def test_fractional_counts_take_fsum(self, fsums):
        rows = [(ctx(), 5, 0.1), (ctx(), 6, 0.2), (ctx(), 7, 0.3),
                (ctx(prefix=11), 5, 2.0 ** 53), (ctx(prefix=11), 6, 1.0),
                (ctx(prefix=11), 7, 1.0), (ctx(prefix=12), 5, 0.5),
                (ctx(prefix=12), 6, 0.25)]
        model = hist(FEATURES_AP, *rows)
        assert fsums == [3, 3]
        self.assert_fsum_shares(model, [ctx(), ctx(prefix=11),
                                        ctx(prefix=12)])
