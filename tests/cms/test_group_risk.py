"""Tests for router/site-level risk analysis (Appendix C extension)."""

import pytest

from repro.cms import RiskAnalyzer
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


#: two flows on the iad-er1 pair, with iad-er2 as their alternative
HISTORY = [row for p, link in ((1, 0), (2, 1))
           for row in ((ctx(p), link, 100.0), (ctx(p), 2, 20.0))]


@pytest.fixture()
def world():
    metros = MetroCatalog()
    links = [
        PeeringLink(0, 100, "iad", "iad-er1", 1.0),  # same router pair
        PeeringLink(1, 100, "iad", "iad-er1", 1.0),
        PeeringLink(2, 100, "iad", "iad-er2", 1.0),  # other router
        PeeringLink(3, 100, "nyc", "nyc-er1", 1.0),  # other metro
    ]
    wan = CloudWAN(8075, links, [Region("r", "iad")],
                   [DestPrefix(0, "100.64.0.0/24", "r", "web")], metros)
    return wan, from_rows(HistoricalModel, FEATURES_AP, HISTORY)


def hour(volume=0.6):
    return sample_of_entries([(0, 0, ctx(1), volume * GBPS_HOUR),
                              (1, 0, ctx(2), volume * GBPS_HOUR)])


class TestGrouping:
    def test_group_of(self, world):
        wan, model = world
        analyzer = RiskAnalyzer(wan, model)
        assert analyzer.group_of(0, "link") == 0
        assert analyzer.group_of(0, "router") == "iad-er1"
        assert analyzer.group_of(0, "metro") == "iad"
        assert analyzer.group_of(0, "peer") == "AS100"
        with pytest.raises(ValueError):
            analyzer.group_of(0, "continent")


class TestRouterOutage:
    def test_router_failure_overloads_survivor(self, world):
        wan, model = world
        analyzer = RiskAnalyzer(wan, model, threshold=0.7)
        findings = analyzer.analyze([hour() for _ in range(3)],
                                    group_by="router")
        assert findings
        top = findings[0]
        # both er1 links fail together -> their combined 1.2G lands on
        # link 2, far over 70% of its 1G capacity
        assert top.link_id == 2
        assert top.affecting_group == "iad-er1"
        assert top.predicted_extra_high_hours == 3

    def test_single_link_outage_would_not_trip(self, world):
        """The contrast that makes group analysis worthwhile: each link
        alone shifts 0.6G (< 0.7 threshold), only the joint router
        failure overloads the survivor."""
        wan, model = world
        single = RiskAnalyzer(wan, model, threshold=0.7)
        findings = single.analyze([hour() for _ in range(3)],
                                  group_by="link")
        assert all(f.link_id != 2 for f in findings)

    def test_metro_outage_pushes_out_of_metro(self, world):
        wan, _model = world
        # give the flows a nyc alternative so a metro-wide failure has
        # somewhere to go
        model = from_rows(HistoricalModel, FEATURES_AP, HISTORY + [
            (ctx(1), 3, 10.0), (ctx(2), 3, 10.0)])
        analyzer = RiskAnalyzer(wan, model, threshold=0.7)
        findings = analyzer.analyze([hour(0.8) for _ in range(2)],
                                    group_by="metro")
        assert findings
        assert all(f.affecting_group == "iad" for f in findings)
        assert {f.link_id for f in findings} == {3}

    def test_min_extra_hours(self, world):
        wan, model = world
        analyzer = RiskAnalyzer(wan, model, threshold=0.7)
        findings = analyzer.analyze([hour()], group_by="router",
                                    min_extra_hours=2)
        assert findings == []
