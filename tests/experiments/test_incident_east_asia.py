"""Tests for the §6 East Asia incident replay."""

import pytest

from repro.experiments import (build_east_asia_world, incident_east_asia,
                               replay_east_asia)

from tests.cms.entry_oracle import EntryCMS
from tests.experiments.incident_oracle import oracle_service


@pytest.fixture(scope="module")
def world():
    return build_east_asia_world(seed=0)


@pytest.fixture(scope="module")
def report(world):
    return replay_east_asia(world)


class TestEastAsiaIncident:
    def test_two_prefixes_withdrawn(self, report):
        """'CMS withdrew two /24 prefixes.'"""
        assert len(report.withdrawn_prefixes) == 2
        assert report.withdrawal_hour is not None

    def test_traffic_shifts_to_three_links(self, report, world):
        """'TIPSY identified three links that the traffic would shift
        to' — and it actually did."""
        assert set(report.actual_shift_links) == {
            world.links["hkg,P"], world.links["hkg,Q"],
            world.links["tpe,P"]}

    def test_shift_spans_two_transit_providers(self, report, world):
        peers = {world.wan.link(l).peer_asn
                 for l in report.actual_shift_links}
        assert len(peers) == 2

    def test_shift_geography_matches_paper(self, report, world):
        """'two in the same metropolitan region and one in a different
        country in East Asia'."""
        metros = [world.wan.link(l).metro for l in report.actual_shift_links]
        countries = {world.wan.metros.get(m).country for m in metros}
        assert metros.count("hkg") == 2
        assert len(countries) == 2

    def test_prediction_covers_actual(self, report):
        """'traffic shifted as predicted to those links'."""
        assert set(report.actual_shift_links) <= set(report.predicted_links)

    def test_alternates_had_capacity(self, report):
        """'All three links had sufficient capacity to absorb the
        traffic.'"""
        assert report.max_alt_utilization < 0.85

    def test_reannounced_two_hours_later(self, report):
        """'2 hours after the withdrawals, traffic levels had dropped
        sufficiently that the prefixes were re-announced.'"""
        assert report.hours_until_reannounce == 2
        reannounced = {a.dest_prefix_id for a in report.actions
                       if a.kind == "reannounce"}
        assert reannounced == set(report.withdrawn_prefixes)

    def test_no_cascade(self, report, world):
        """Unlike §2, this incident resolves without further rounds."""
        withdraw_hours = {a.sample_index for a in report.actions
                          if a.kind.startswith("withdraw")}
        assert len(withdraw_hours) == 1


class TestColumnarSample:
    def test_replay_equals_the_entry_walk(self, world, report, monkeypatch):
        """The replay over columnar samples reports what one whose CMS
        walks each sample entry by entry reports, action for action."""
        monkeypatch.setattr(incident_east_asia, "CongestionMitigationSystem",
                            EntryCMS)
        assert replay_east_asia(world) == report


class TestServiceEqualsOracle:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_replay_equals_the_hand_trained_model(self, seed, monkeypatch):
        """The replay whose CMS asks the service equals the one whose
        CMS asks Hist_AL+G folded by hand over the completed
        pre-incident days, action for action, spills bit for bit."""
        world = build_east_asia_world(seed=seed)
        served = replay_east_asia(world)
        monkeypatch.setattr(world, "service", oracle_service(world))
        assert replay_east_asia(world) == served
