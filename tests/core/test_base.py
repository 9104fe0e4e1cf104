"""Tests for the model protocol defaults."""

from typing import FrozenSet, List

import pytest

from repro.core import (FEATURES_A, FEATURES_AL, GeoAugmentedModel,
                        HistoricalModel, IngressModel, NaiveBayesModel,
                        OracleModel, Prediction, SequentialEnsemble)
from repro.core.base import NO_LINKS, spill_from_groups
from repro.pipeline import FlowContext
from repro.topology import (CloudWAN, DestPrefix, MetroCatalog, PeeringLink,
                            Region)
from tests.core.builders import from_rows
from tests.core.per_context import PerContextModel


class _Fixed(PerContextModel):
    """Minimal model returning a fixed ranking (for protocol tests)."""

    name = "fixed"

    def __init__(self, links):
        self._links = links

    def predict(self, context: FlowContext, k: int,
                unavailable: FrozenSet[int] = NO_LINKS) -> List[Prediction]:
        out = [Prediction(l, 1.0 / (i + 1))
               for i, l in enumerate(self._links)
               if l not in unavailable]
        return out[:k]


CTX = FlowContext(1, 2, 3, 4, 5)


class TestDefaults:
    def test_size_defaults_to_zero_inside_compositions(self):
        """Every model has a size, so an ensemble or a completion sums
        its components' without asking whether they have one."""
        world, fixed = _k_world(), _Fixed([1])
        hist = world["Hist_AL"]
        assert fixed.size() == 0
        assert SequentialEnsemble([fixed, hist]).size() == hist.size() == 1
        assert GeoAugmentedModel(fixed, world["Hist_AL+G"].wan).size() == 0

    def test_prediction_namedtuple_fields(self):
        p = Prediction(7, 0.5)
        assert p.link_id == 7
        assert p.score == 0.5
        link, score = p
        assert (link, score) == (7, 0.5)

    def test_abstract_instantiation_fails(self):
        try:
            IngressModel()
        except TypeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("IngressModel should be abstract")


def _k_world():
    """One AL tuple seen on links 5/7/9 with 100/50/25 bytes, in every
    model that answers a ``k``: the historical and Naive Bayes models,
    the oracle, AL+G and an ensemble."""
    metros = MetroCatalog()
    wan = CloudWAN(8075, [PeeringLink(link, 100, "iad", "iad-er1", 100.0)
                          for link in (5, 7, 9)],
                   [Region("r", "iad")],
                   [DestPrefix(0, "100.64.0.0/24", "r", "web")], metros)
    rows = [(CTX, link, bytes_)
            for link, bytes_ in ((5, 100.0), (7, 50.0), (9, 25.0))]
    hist, oracle, bayes = (from_rows(cls, FEATURES_AL, rows) for cls in (
        HistoricalModel, OracleModel, NaiveBayesModel))
    a = from_rows(HistoricalModel, FEATURES_A, ())
    return {"Hist_AL": hist, "NB_AL": bayes, "Oracle_AL": oracle,
            "Hist_AL+G": GeoAugmentedModel(hist, wan),
            "Hist_AL/A": SequentialEnsemble([hist, a])}


class TestSpillSum:
    def test_a_group_total_adds_left_to_right(self):
        """Scores 1.0, 1e-16, 1e-16 total 1.0 added left to right, as
        Python 3.9-3.11's builtin ``sum`` adds; from 3.12 it compensates
        and totals one ulp more, which would shrink every share."""
        tiny_tail = (Prediction(0, 1.0), Prediction(1, 1e-16),
                     Prediction(2, 1e-16))
        spill = spill_from_groups([(tiny_tail, 1.0), ((), 2.0)])
        assert [(link, bytes_.hex()) for link, bytes_ in spill.items()] == [
            (0, (1.0).hex()), (1, (1e-16).hex()), (2, (1e-16).hex()),
            (-1, (2.0).hex())]


class TestKBelowOne:
    """``k`` below 1 is a caller's error in every model, not an empty
    answer, a clipped one, or a bad ``argpartition``."""

    @pytest.mark.parametrize("name", ["Hist_AL", "NB_AL", "Oracle_AL",
                                      "Hist_AL+G", "Hist_AL/A"])
    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("prior", [NO_LINKS, frozenset({7})])
    def test_predict_refuses_k_below_one(self, name, k, prior):
        model = _k_world()[name]
        assert [p.link_id for p in model.predict(CTX, 1, prior)] == [5]
        with pytest.raises(ValueError, match="k must be at least 1"):
            model.predict(CTX, k, prior)


class TestAllLinksWithdrawn:
    """A model answers only with links that are up: with every link it
    knows withdrawn, each answers nothing, and with one left, that one."""

    @pytest.mark.parametrize("name", ["Hist_AL", "NB_AL", "Oracle_AL",
                                      "Hist_AL+G", "Hist_AL/A"])
    def test_answers_only_with_links_that_are_up(self, name):
        model = _k_world()[name]
        assert model.predict(CTX, 3, frozenset({5, 7, 9})) == []
        assert [p.link_id for p in model.predict(
            CTX, 3, frozenset({5, 7}))] == [9]
