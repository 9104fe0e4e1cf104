"""Tests for the AL+G geographic completion."""

import pytest

from repro.core import FEATURES_AL, GeoAugmentedModel, HistoricalModel
from repro.pipeline import FlowContext
from repro.topology import (
    CloudWAN,
    DestPrefix,
    MetroCatalog,
    PeeringLink,
    Region,
)
from tests.core.builders import from_rows


def ctx(asn=1, prefix=10, loc=0, region=0, service=0):
    return FlowContext(asn, prefix, loc, region, service)


@pytest.fixture()
def wan():
    metros = MetroCatalog()
    links = [
        PeeringLink(0, 100, "iad", "iad-er1", 100.0),
        PeeringLink(1, 100, "iad", "iad-er2", 100.0),
        PeeringLink(2, 100, "atl", "atl-er1", 100.0),
        PeeringLink(3, 100, "tyo", "tyo-er1", 100.0),
        PeeringLink(4, 200, "iad", "iad-er1", 100.0),
    ]
    return CloudWAN(8075, links,
                    [Region("iad-region", "iad")],
                    [DestPrefix(0, "100.64.0.0/24", "iad-region", "web")],
                    metros)


@pytest.fixture()
def model(wan):
    # only one link ever seen
    base = from_rows(HistoricalModel, FEATURES_AL, [(ctx(), 0, 100.0)])
    return GeoAugmentedModel(base, wan)


class TestCompletion:
    def test_completes_to_k_by_distance(self, model):
        preds = model.predict(ctx(), 3)
        # base knows link 0 (iad); completion adds the same peer's other
        # links nearest to iad: the parallel iad link, then atl
        assert [p.link_id for p in preds] == [0, 1, 2]

    def test_appended_scores_below_base(self, model):
        preds = model.predict(ctx(), 3)
        assert preds[0].score > preds[1].score > preds[2].score

    def test_does_not_cross_peers(self, model):
        # link 4 belongs to a different AS at the same metro: never added
        preds = model.predict(ctx(), 4)
        assert 4 not in [p.link_id for p in preds]
        assert [p.link_id for p in preds] == [0, 1, 2, 3]

    def test_no_completion_needed(self, wan):
        base = from_rows(HistoricalModel, FEATURES_AL, [
            (ctx(), link, b) for link, b in ((0, 100.0), (1, 50.0), (2, 25.0))])
        model = GeoAugmentedModel(base, wan)
        assert model.predict(ctx(), 3) == base.predict(ctx(), 3)

    def test_unknown_flow_no_anchor(self, model):
        assert model.predict(ctx(asn=9), 3) == []


class TestWithdrawnAnchor:
    def test_withdrawn_top_link_still_anchors(self, model):
        """The unseen-outage case: the flow's only historical link is
        down, but its geography still guides the completion."""
        preds = model.predict(ctx(), 3, unavailable=frozenset({0}))
        assert [p.link_id for p in preds] == [1, 2, 3]

    def test_unavailable_excluded_from_completion(self, model):
        preds = model.predict(ctx(), 3, unavailable=frozenset({0, 1}))
        assert [p.link_id for p in preds] == [2, 3]

    def test_no_answer_when_every_peer_link_is_withdrawn(self, model):
        """The anchor's peer has no link left: no other peer's link is
        offered in its place."""
        assert model.predict(ctx(), 3, frozenset({0, 1, 2, 3})) == []


class TestNaming:
    def test_default_name(self, model):
        assert model.name == "Hist_AL+G"

    def test_size_delegates(self, model):
        assert model.size() == 1
