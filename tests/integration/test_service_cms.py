"""Integration: the TipsyService plugged into the CMS, end to end."""

import pytest

from repro.bgp import AdvertisementState
from repro.cms import CMSConfig, CongestionMitigationSystem
from repro.core import ServiceConfig, TipsyService
from repro.pipeline import HourlyAggregator


class TestServiceDrivesCms:
    def test_service_as_cms_predictor(self, small_scenario):
        """The service satisfies the CMS's predictor interface: the
        whole §4 loop — ingest, retrain daily, answer safety queries —
        composes without glue code."""
        sc = small_scenario
        service = TipsyService(sc.wan, ServiceConfig(training_window_days=5))
        cms = CongestionMitigationSystem(sc.wan, CMSConfig(),
                                         predictor=service)
        state = AdvertisementState(sc.wan)
        # the CMS mutates `state` between hours, so this loop owns the
        # stream and aggregates each hour itself (the feed's two steps)
        aggregator = HourlyAggregator(sc.metadata, encoders=sc.encoders)
        acted = False
        for cols in sc.stream(0, 7 * 24, state=state):
            service.ingest_hour(cols.hour, aggregator.aggregate_hour_columns(
                cols.hour, *sc.ipfix_columns_for(cols)).to_records())
            if not service.ready:
                continue
            sample = sc.traffic_entries_for(cols)
            actions = cms.handle_sample(cols.hour, state, sample)
            acted = acted or bool(actions)
        # the service retrained as days rolled over
        assert service.retrain_count >= 5
        # and the CMS ran its loop with service predictions (whether it
        # acted depends on utilization; either way no exceptions, and
        # every action it DID take is of a known kind)
        for action in cms.actions:
            assert action.kind in {"withdraw", "withdraw-coordinated",
                                   "skip-unsafe", "reannounce"}

    def test_service_what_if_matches_cms_expectation(self, small_scenario):
        """what_if() answers the exact question CMS's spill check asks."""
        sc = small_scenario
        service = TipsyService(sc.wan, ServiceConfig(training_window_days=5))
        for columns in sc.aggregated_hours(0, 3 * 24):
            service.ingest_hour(columns.hour, columns.to_records())
        service.ingest_hour(3 * 24, [])  # roll the day: train on days 0-2
        assert service.ready

        cols = next(iter(sc.stream(3 * 24, 3 * 24 + 1)))
        sample = sc.traffic_entries_for(cols)
        # pick the busiest link and ask where its flows would go
        by_link = {}
        for link, row, bytes_ in zip(sample.link_ids.tolist(),
                                     sample.flow_rows.tolist(),
                                     sample.bytes.tolist()):
            by_link.setdefault(link, []).append(
                (sample.contexts[row], bytes_))
        hot = max(by_link, key=lambda l: sum(b for _c, b in by_link[l]))
        flows = by_link[hot]
        spill = service.what_if(flows, withdrawn=frozenset({hot}))
        total = sum(b for _c, b in flows)
        assert sum(spill.values()) == pytest.approx(total)
        assert hot not in spill
