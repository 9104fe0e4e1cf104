"""Integration: the TipsyService plugged into the CMS, end to end.

CMS asks its predictor one question, ``what_if(flows, withdrawn, k)``;
a bare model, the service and the sharded daemon all answer it, and a
CMS loop driven by any of them records the same decisions.
"""

import pytest

from repro.bgp import AdvertisementState
from repro.cms import CMSConfig, CongestionMitigationSystem
from repro.core import ServiceConfig, TipsyService
from repro.pipeline import HourlyAggregator
from repro.serve import DaemonConfig, ServeDaemon

#: the CMS loop runs live over days 3-5, after three training days
LIVE = (3 * 24, 6 * 24)


class TestServiceDrivesCms:
    def test_service_as_cms_predictor(self, small_scenario):
        """The service answers the CMS's ``what_if``: the
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


def trained(scenario, predictor):
    """Feed ``predictor`` (a service or a daemon) the training days."""
    for columns in scenario.aggregated_hours(0, LIVE[0]):
        predictor.ingest_hour(columns.hour, columns)
    return predictor


def cms_loop(scenario, predictor, feed=None):
    """The CMS's actions over the live hours; ``feed``, if given, is
    handed each live hour's aggregate before the CMS acts on it."""
    cms = CongestionMitigationSystem(scenario.wan, CMSConfig(),
                                     predictor=predictor)
    state = AdvertisementState(scenario.wan)
    aggregator = HourlyAggregator(scenario.metadata,
                                  encoders=scenario.encoders)
    for cols in scenario.stream(*LIVE, state=state):
        if feed is not None:
            feed(cols.hour, aggregator.aggregate_hour_columns(
                cols.hour, *scenario.ipfix_columns_for(cols)))
        cms.handle_sample(cols.hour, state,
                          scenario.traffic_entries_for(cols))
    return cms.actions


class TestOnePredictorQuestion:
    def test_daemon_drives_cms_like_the_service(self, small_scenario):
        """72 live hours through a 2-shard daemon and through the one
        service it is bit-identical to: the same actions, spill and all."""
        sc = small_scenario
        config = ServiceConfig(training_window_days=5)
        service = trained(sc, TipsyService(sc.wan, config))
        expected = cms_loop(sc, service, service.ingest_hour)
        assert any(a.kind != "reannounce" for a in expected)
        with ServeDaemon(sc.wan, DaemonConfig(
                n_shards=2, workers="inline", service=config)) as daemon:
            trained(sc, daemon)

            def feed(hour, columns):
                daemon.ingest_hour(hour, columns)
                daemon.drain()

            assert cms_loop(sc, daemon, feed) == expected

    def test_service_and_its_withdrawal_model_decide_alike(
            self, small_scenario):
        sc = small_scenario
        service = trained(sc, TipsyService(
            sc.wan, ServiceConfig(training_window_days=5)))
        service.ingest_hour(LIVE[0], [])   # roll the day: train on 0-2
        model = service.model(service.config.withdrawal_model)
        actions = cms_loop(sc, service)
        assert any(a.predicted_spill for a in actions)
        assert cms_loop(sc, model) == actions
