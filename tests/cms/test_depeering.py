"""Tests for the de-peering analysis (§8)."""

import pytest

from repro.cms import DepeeringAnalyzer
from repro.core import FEATURES_AP, HistoricalModel
from repro.pipeline import FlowContext
from repro.topology import (
    CloudWAN,
    DestPrefix,
    MetroCatalog,
    PeeringLink,
    Region,
)

from tests.cms.entry_oracle import sample_of_entries
from tests.core.builders import from_rows

GBPS_HOUR = 1e9 / 8.0 * 3600.0


def ctx(prefix):
    return FlowContext(1, prefix, 0, 0, 0)


@pytest.fixture()
def world():
    metros = MetroCatalog()
    links = [
        PeeringLink(0, 100, "iad", "iad-er1", 10.0),   # big peer
        PeeringLink(1, 100, "nyc", "nyc-er1", 10.0),
        PeeringLink(2, 200, "iad", "iad-er2", 1.0),    # small peer
        PeeringLink(3, 300, "iad", "iad-er3", 1.0),    # small, no alt
    ]
    wan = CloudWAN(8075, links, [Region("r", "iad")],
                   [DestPrefix(0, "100.64.0.0/24", "r", "web")], metros)
    model = from_rows(HistoricalModel, FEATURES_AP, [
        # peer 200's flows have history on peer 100's links too
        (ctx(1), 2, 100.0), (ctx(1), 0, 20.0),
        # peer 300's flow has never been seen anywhere else
        (ctx(2), 3, 100.0),
        # background flows on peer 100
        (ctx(3), 0, 500.0), (ctx(3), 1, 100.0)])
    return wan, model


def entries(volume_small=0.1):
    return sample_of_entries([
        (0, 0, ctx(3), 5.0 * GBPS_HOUR),
        (1, 0, ctx(3), 1.0 * GBPS_HOUR),
        (2, 0, ctx(1), volume_small * GBPS_HOUR),
        (3, 0, ctx(2), volume_small * GBPS_HOUR),
    ])


class TestAssessment:
    def test_safe_small_peer(self, world):
        wan, model = world
        analyzer = DepeeringAnalyzer(wan, model)
        assessment = analyzer.assess(200, entries())
        assert assessment.safe
        assert assessment.n_links == 1
        assert assessment.carried_fraction < 0.05
        spill_links = [l for l, _b in assessment.predicted_spill]
        assert 0 in spill_links  # shifts onto peer 100's link

    def test_unplaceable_traffic_blocks(self, world):
        wan, model = world
        analyzer = DepeeringAnalyzer(wan, model)
        assessment = analyzer.assess(300, entries())
        assert assessment.unplaceable_bytes > 0
        assert not assessment.safe

    def test_overload_blocks(self, world):
        wan, model = world
        analyzer = DepeeringAnalyzer(wan, model, safety_threshold=0.85)
        # crank the small peer's traffic so the spill overloads link 0
        heavy = sample_of_entries([
            (0, 0, ctx(3), 9.0 * GBPS_HOUR),
            (2, 0, ctx(1), 3.0 * GBPS_HOUR),
        ])
        assessment = analyzer.assess(200, heavy)
        assert assessment.overloaded_links == (0,)
        assert not assessment.safe

    def test_unknown_peer_rejected(self, world):
        wan, model = world
        with pytest.raises(KeyError):
            DepeeringAnalyzer(wan, model).assess(999, entries())


class TestRanking:
    def test_rank_candidates_filters_and_sorts(self, world):
        wan, model = world
        analyzer = DepeeringAnalyzer(wan, model)
        candidates = analyzer.rank_candidates(entries(),
                                              max_carried_fraction=0.05)
        asns = [a.peer_asn for a in candidates]
        assert 200 in asns          # safe, low-value
        assert 300 not in asns      # traffic would strand
        assert 100 not in asns      # carries too much
        carried = [a.carried_bytes for a in candidates]
        assert carried == sorted(carried)
