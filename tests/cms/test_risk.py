"""Tests for the Algorithm 1 risk analyzer."""

import pytest

from repro.cms import RiskAnalyzer
from repro.core import FEATURES_AP, HistoricalModel, Prediction
from repro.pipeline import FlowContext
from repro.topology import (
    CloudWAN,
    DestPrefix,
    MetroCatalog,
    PeeringLink,
    Region,
)

from tests.cms.entry_oracle import sample_of_entries as sample
from tests.core.builders import from_rows
from tests.core.per_context import PerContextModel

GBPS_HOUR = 1e9 / 8.0 * 3600.0


def ctx(prefix):
    return FlowContext(1, prefix, 0, 0, 0)


#: flows historically on link 0 with link 1 as the alternative
HISTORY = [(ctx(i), link, bytes_) for i in range(4)
           for link, bytes_ in ((0, 100.0), (1, 10.0))]


@pytest.fixture()
def world():
    metros = MetroCatalog()
    links = [
        PeeringLink(0, 100, "iad", "iad-er1", 1.0),
        PeeringLink(1, 100, "iad", "iad-er2", 1.0),
        PeeringLink(2, 200, "atl", "atl-er1", 10.0),
    ]
    wan = CloudWAN(8075, links, [Region("r", "iad")],
                   [DestPrefix(0, "100.64.0.0/24", "r", "web")], metros)
    return wan, from_rows(HistoricalModel, FEATURES_AP, HISTORY)


def hour_entries(volume_gbps, link=0, n=4):
    """(link, prefix, context, bytes) rows: ``n`` flows sharing a volume."""
    per = volume_gbps * GBPS_HOUR / n
    return [(link, 0, ctx(i), per) for i in range(n)]


class TestRiskAnalyzer:
    def test_detects_at_risk_pair(self, world):
        wan, model = world
        analyzer = RiskAnalyzer(wan, model, threshold=0.7)
        hours = [sample(hour_entries(0.8)) for _ in range(5)]
        findings = analyzer.analyze(hours)
        assert findings
        top = findings[0]
        assert top.link_id == 1          # link 1 is at risk...
        assert top.affecting_group == 0  # ...if link 0 fails
        assert top.predicted_extra_high_hours == 5
        assert top.typical_high_hours == 0

    def test_no_finding_when_load_low(self, world):
        wan, model = world
        analyzer = RiskAnalyzer(wan, model, threshold=0.7)
        hours = [sample(hour_entries(0.3)) for _ in range(5)]
        assert analyzer.analyze(hours) == []

    def test_already_high_links_not_reported(self, world):
        wan, model = world
        analyzer = RiskAnalyzer(wan, model, threshold=0.7)
        # link 1 is ALREADY above threshold every hour: the what-if adds
        # nothing new, so it is excluded (the paper reports *extra* hours)
        hours = [sample(hour_entries(0.8, link=0)
                        + hour_entries(0.9, link=1)) for _ in range(3)]
        findings = analyzer.analyze(hours)
        assert all(f.link_id != 1 for f in findings)

    def test_min_extra_hours_filter(self, world):
        wan, model = world
        analyzer = RiskAnalyzer(wan, model, threshold=0.7)
        hours = [sample(hour_entries(0.8))]
        assert analyzer.analyze(hours, min_extra_hours=2) == []
        assert analyzer.analyze(hours, min_extra_hours=1)

    def test_sorted_by_extra_hours(self, world):
        wan, _model = world
        # add a second flow family on link 2 that would shift to link 0
        model = from_rows(HistoricalModel, FEATURES_AP, HISTORY + [
            (ctx(100), 2, 100.0), (ctx(100), 0, 10.0)])
        analyzer = RiskAnalyzer(wan, model, threshold=0.7)
        hours = [
            sample(hour_entries(0.8) + [(2, 0, ctx(100), 0.8 * GBPS_HOUR)])
            for _ in range(4)
        ]
        findings = analyzer.analyze(hours)
        extras = [f.predicted_extra_high_hours for f in findings]
        assert extras == sorted(extras, reverse=True)

    def test_finding_metadata(self, world):
        wan, model = world
        analyzer = RiskAnalyzer(wan, model, threshold=0.7)
        findings = analyzer.analyze([sample(hour_entries(0.8))])
        top = findings[0]
        assert top.peer_asn == 100
        assert top.capacity_gbps == 1.0
        assert wan.link(top.affecting_group).peer_asn == 100


class _TinyTail(PerContextModel):
    """Every flow on links 0, 1 and 2, scored 1.0, 1e-16 and 1e-16: a
    total of 1.0 added left to right, one ulp more compensated (the
    builtin ``sum`` of floats from Python 3.12)."""

    name = "tiny-tail"

    def predict(self, context, k, unavailable=frozenset()):
        return [Prediction(link, score) for link, score
                in ((0, 1.0), (1, 1e-16), (2, 1e-16))][:k]


class TestLeftToRightWeights:
    def test_shift_weights_divide_by_the_running_total(self, world):
        wan, _model = world
        weights = RiskAnalyzer(wan, _TinyTail())._shift(ctx(0), frozenset())
        assert [(link, weight.hex()) for link, weight in weights] == [
            (0, (1.0).hex()), (1, (1e-16).hex()), (2, (1e-16).hex())]
