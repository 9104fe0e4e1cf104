"""Tests for the flow population and hourly volume generation."""

import numpy as np
import pytest

from repro.bgp import IngressSimulator
from repro.topology import (
    MetroCatalog,
    TopologyParams,
    WANParams,
    generate_as_graph,
    generate_wan,
)
from repro.traffic import (
    PrefixUniverse,
    SERVICE_PROFILES,
    TrafficGenerator,
    TrafficParams,
    profile_for,
)


@pytest.fixture(scope="module")
def world():
    metros = MetroCatalog()
    graph = generate_as_graph(metros, TopologyParams(
        n_tier1=3, n_transit=8, n_access=15, n_cdn=3, n_stub=40), seed=4)
    wan = generate_wan(graph, WANParams(n_regions=6, n_dest_prefixes=24),
                       seed=4)
    universe = PrefixUniverse(graph, seed=4)
    simulator = IngressSimulator(graph, wan, seed=4)
    params = TrafficParams(n_flows=500, horizon_days=10)
    gen = TrafficGenerator(graph, wan, universe, simulator.as_distance,
                           params, seed=4)
    return graph, wan, universe, simulator, gen


class TestPopulation:
    def test_flow_count_near_target(self, world):
        *_rest, gen = world
        assert 400 <= len(gen) <= 600

    def test_flow_sources_are_real_prefixes(self, world):
        _g, _w, universe, _s, gen = world
        for flow in gen.flows[:100]:
            prefix = universe.prefix(flow.src_prefix_id)
            assert prefix.asn == flow.src_asn
            assert prefix.metro == flow.src_metro

    def test_flow_destinations_are_real(self, world):
        _g, wan, _u, _s, gen = world
        for flow in gen.flows[:100]:
            dest = wan.dest_prefix(flow.dest_prefix_id)
            assert dest.region == flow.dest_region
            assert dest.service == flow.dest_service

    def test_profiles_match_services(self, world):
        *_rest, gen = world
        for flow in gen.flows[:100]:
            assert flow.profile_name == profile_for(flow.dest_service).name

    def test_distance_targets_roughly_met(self, world):
        _g, _w, _u, sim, gen = world
        by_distance = {}
        for flow in gen.flows:
            d = min(sim.as_distance(flow.src_asn), 4)
            by_distance[d] = by_distance.get(d, 0) + 1
        total = sum(by_distance.values())
        # the majority of flows come from 1-hop sources (paper Figure 2)
        assert by_distance.get(1, 0) / total > 0.4
        assert by_distance.get(1, 0) / total < 0.8

    def test_churn_produces_late_starts(self, world):
        *_rest, gen = world
        late = [f for f in gen.flows if f.start_day > 0]
        assert 0 < len(late) < len(gen.flows) * 0.3

    def test_lifetimes_within_horizon(self, world):
        *_rest, gen = world
        for flow in gen.flows:
            assert 0 <= flow.start_day <= flow.end_day <= 10

    def test_utilization_scaling_applied(self, world):
        _g, wan, _u, _s, gen = world
        total_rate_mbps = sum(f.base_rate_mbps for f in gen.flows)
        capacity_mbps = sum(l.capacity_gbps for l in wan.links) * 1000.0
        target = gen.params.mean_utilization_target
        # capping trims some mass, so allow a band around the target
        assert 0.4 * target < total_rate_mbps / capacity_mbps <= target * 1.01

    def test_rate_cap_enforced(self, world):
        *_rest, gen = world
        cap_limit = gen.params.rate_cap_fraction * (
            gen.params.mean_utilization_target *
            sum(l.capacity_gbps for l in world[1].links) * 1000.0)
        assert max(f.base_rate_mbps for f in gen.flows) <= cap_limit * 1.001


class TestVolumes:
    def test_deterministic_per_hour(self, world):
        *_rest, gen = world
        v1 = gen.volumes_for_hour(5)
        v2 = gen.volumes_for_hour(5)
        assert np.array_equal(v1, v2)
        # a different hour in between: the remembered hour moves on, and
        # hour 5 comes back with the same values
        v6 = gen.volumes_for_hour(6)
        assert not np.array_equal(v6, v1)
        assert np.array_equal(gen.volumes_for_hour(5), v1)
        assert np.array_equal(gen.volumes_for_hour(6), v6)

    def test_remembered_volumes_are_read_only(self, world):
        """Every later caller of an hour gets the same array: writing
        into it would corrupt each later stream of that hour."""
        *_rest, gen = world
        vols = gen.volumes_for_hour(7)
        assert gen.volumes_for_hour(7) is vols
        with pytest.raises(ValueError):
            vols[0] = 1.0

    def test_inactive_flows_zero(self, world):
        *_rest, gen = world
        late = [f for f in gen.flows if f.start_day > 2]
        if not late:
            pytest.skip("no late flows at this seed")
        flow = late[0]
        vols = gen.volumes_for_hour(0)
        assert vols[flow.flow_id] == 0.0
        vols_later = gen.volumes_for_hour(flow.start_day * 24 + 1)
        assert vols_later[flow.flow_id] > 0.0

    def test_volumes_nonnegative(self, world):
        *_rest, gen = world
        for hour in (0, 13, 100):
            assert (gen.volumes_for_hour(hour) >= 0.0).all()

    def test_diurnal_variation_visible_per_flow(self, world):
        # the global total is smoothed by timezones; individual flows
        # must still swing with their local day
        *_rest, gen = world
        flow = max(gen.flows, key=lambda f: profile_for(f.dest_service).amplitude)
        series = [gen.volumes_for_hour(h)[flow.flow_id] for h in range(24)]
        assert max(series) > 1.5 * min(v for v in series if v > 0)


class TestWorkloadCoverage:
    def test_all_default_services_have_profiles(self, world):
        _g, wan, *_rest = world
        for service in wan.services():
            assert service in SERVICE_PROFILES

    def test_unknown_service_defaults_to_enterprise(self):
        assert profile_for("quantum-teleport").name == "enterprise"
