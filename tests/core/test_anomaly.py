"""Tests for suspicious-ingress detection (§8)."""

import pytest

from repro.core import (
    AnomalyDetectorConfig,
    FEATURES_AP,
    HistoricalModel,
    IngressAnomalyDetector,
)
from repro.pipeline import FlowContext
from repro.topology import (
    CloudWAN,
    DestPrefix,
    MetroCatalog,
    PeeringLink,
    Region,
)
from tests.core.builders import from_rows


def ctx(prefix=1):
    return FlowContext(1, prefix, 0, 0, 0)


@pytest.fixture()
def detector():
    metros = MetroCatalog()
    links = [
        PeeringLink(0, 100, "iad", "iad-er1", 100.0),
        PeeringLink(1, 100, "nyc", "nyc-er1", 100.0),
        PeeringLink(2, 100, "tyo", "tyo-er1", 100.0),
        PeeringLink(3, 200, "sin", "sin-er1", 100.0),
    ]
    wan = CloudWAN(8075, links, [Region("r", "iad")],
                   [DestPrefix(0, "100.64.0.0/24", "r", "web")], metros)
    # flow lives on the iad link
    model = from_rows(HistoricalModel, FEATURES_AP, [(ctx(), 0, 1000.0)])
    return IngressAnomalyDetector(model, wan)


class TestJudgement:
    def test_predicted_link_is_clean(self, detector):
        verdict = detector.judge(ctx(), 0)
        assert not verdict.suspicious
        assert "predicted set" in verdict.reason

    def test_nearby_unpredicted_link_is_clean(self, detector):
        # nyc is ~330 km from iad: inside the distance margin
        verdict = detector.judge(ctx(), 1)
        assert not verdict.suspicious
        assert verdict.nearest_predicted_km < 500

    def test_far_link_is_suspicious(self, detector):
        # tokyo is ~10,000 km from every predicted ingress
        verdict = detector.judge(ctx(), 2)
        assert verdict.suspicious
        assert verdict.nearest_predicted_km > 4000

    def test_unknown_flow_not_flagged(self, detector):
        verdict = detector.judge(ctx(prefix=999), 2)
        assert not verdict.suspicious
        assert "unknown flow" in verdict.reason

    def test_distance_threshold_configurable(self, detector):
        detector.config = AnomalyDetectorConfig(distance_km=20000.0)
        assert not detector.judge(ctx(), 2).suspicious


class TestScan:
    def test_scan_returns_only_suspicious(self, detector):
        observations = [(ctx(), 0), (ctx(), 1), (ctx(), 2), (ctx(), 3)]
        flagged = detector.scan(observations)
        assert {v.link_id for v in flagged} == {2, 3}
        assert all(v.suspicious for v in flagged)
