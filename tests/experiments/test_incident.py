"""Tests for the §2 incident replay."""

import pytest

from repro.bgp import AdvertisementState
from repro.experiments import build_incident_world, incident, replay_incident

from tests.cms.entry_oracle import EntryCMS
from tests.experiments.incident_oracle import oracle_service


@pytest.fixture(scope="module")
def world():
    return build_incident_world(seed=0)


@pytest.fixture(scope="module")
def blind(world):
    return replay_incident(world, with_tipsy=False)


@pytest.fixture(scope="module")
def guided(world):
    return replay_incident(world, with_tipsy=True)


class TestWorld:
    def test_link_layout(self, world):
        i1, i2, i3, i4 = (world.wan.link(world.links[name])
                          for name in ("I1", "I2", "I3", "I4"))
        assert i1.capacity_gbps == 400.0
        assert i2.capacity_gbps == 400.0
        assert i3.capacity_gbps == 100.0
        assert i4.capacity_gbps == 100.0
        assert i1.metro == i2.metro
        assert i3.metro == i4.metro

    def test_pre_incident_traffic_on_l1_pair(self, world):
        state = AdvertisementState(world.wan)
        sample = world.entries_for_hour(12, state)
        assert set(sample.link_ids.tolist()) == {world.links["I1"],
                                                 world.links["I2"]}

    def test_surge_raises_demand(self, world):
        before = world.demand_gbps(world.surge_start_hour - 1)
        during = world.demand_gbps(world.surge_start_hour)
        assert during > before + world.surge_gbps * 0.9


class TestBlindCascade:
    def test_cascade_order_matches_paper(self, blind, world):
        withdraws = [a for a in blind.actions if a.kind == "withdraw"]
        sequence = [a.link_id for a in withdraws[:4]]
        assert sequence[0] == world.links["I1"]
        assert sequence[1] == world.links["I2"]
        assert set(sequence[2:4]) == {world.links["I3"],
                                      world.links["I4"]}

    def test_three_rounds(self, blind):
        assert blind.withdrawal_rounds == 3

    def test_i3_i4_overload_hard(self, blind, world):
        assert blind.max_utilization[world.links["I3"]] > 1.0
        assert blind.max_utilization[world.links["I4"]] > 1.0

    def test_eventual_reannouncement(self, blind):
        assert any(a.kind == "reannounce" for a in blind.actions)


class TestGuidedMitigation:
    def test_single_coordinated_round(self, guided):
        assert guided.withdrawal_rounds == 1
        kinds = {a.kind for a in guided.actions}
        assert "withdraw-coordinated" in kinds

    def test_coordinated_set_is_all_four(self, guided, world):
        coordinated = {a.link_id for a in guided.actions
                       if a.kind == "withdraw-coordinated"}
        assert coordinated == {world.links[name]
                               for name in ("I1", "I2", "I3", "I4")}

    def test_no_cascade_overloads(self, guided, world):
        # I2..I4 never exceed the congestion threshold under guidance
        for link in (world.links[name] for name in ("I2", "I3", "I4")):
            assert guided.max_utilization.get(link, 0.0) <= 0.9

    def test_fewer_congested_hours_than_blind(self, guided, blind):
        assert guided.congested_link_hours < blind.congested_link_hours


class TestColumnarSample:
    @pytest.mark.parametrize("with_tipsy", [False, True])
    def test_replay_equals_the_entry_walk(self, world, blind, guided,
                                          monkeypatch, with_tipsy):
        """The replay over columnar samples reports what one whose CMS
        walks each sample entry by entry reports: the same actions, and
        the same utilizations behind the printed tables."""
        monkeypatch.setattr(incident, "CongestionMitigationSystem", EntryCMS)
        walked = replay_incident(world, with_tipsy=with_tipsy)
        assert walked == (guided if with_tipsy else blind)


class TestServiceEqualsOracle:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_guided_replay_equals_the_hand_trained_model(self, seed,
                                                         monkeypatch):
        """The guided replay whose CMS asks the service equals the one
        whose CMS asks Hist_AL+G folded by hand over the completed
        pre-incident days, action for action, spills bit for bit."""
        world = build_incident_world(seed=seed)
        served = replay_incident(world, with_tipsy=True)
        monkeypatch.setattr(world, "service", oracle_service(world))
        assert replay_incident(world, with_tipsy=True) == served
