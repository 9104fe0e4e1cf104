"""Property-based tests on ingress-simulator invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import AdvertisementState
from repro.experiments import Scenario, ScenarioParams
from tests.bgp.resolve_oracle import ResolveOracle, resolve_one


@pytest.fixture(scope="module")
def world():
    scenario = Scenario(ScenarioParams.small(seed=13, horizon_days=7))
    return scenario


flow_indices = st.integers(min_value=0, max_value=899)
link_subsets = st.lists(st.integers(min_value=0, max_value=140),
                        max_size=6, unique=True)
days = st.one_of(st.none(), st.integers(min_value=0, max_value=6))


class TestResolutionInvariants:
    @given(flow_indices, days)
    @settings(max_examples=60, deadline=None)
    def test_shares_well_formed(self, world, idx, day):
        scenario = world
        flow = scenario.traffic.flows[idx % len(scenario.traffic.flows)]
        state = AdvertisementState(scenario.wan)
        shares = resolve_one(
            scenario.simulator, flow.src_asn, flow.src_metro,
            flow.src_prefix_id, flow.dest_prefix_id, state, day).shares
        if shares:
            total = sum(f for _l, f in shares)
            assert total == pytest.approx(1.0)
            links = [l for l, _f in shares]
            assert len(links) == len(set(links))
            assert all(scenario.wan.has_link(l) for l in links)
            fracs = [f for _l, f in shares]
            assert fracs == sorted(fracs, reverse=True)

    @given(flow_indices, link_subsets)
    @settings(max_examples=60, deadline=None)
    def test_removed_links_never_appear(self, world, idx, removed_links):
        scenario = world
        flow = scenario.traffic.flows[idx % len(scenario.traffic.flows)]
        state = AdvertisementState(scenario.wan)
        valid = [l for l in removed_links if scenario.wan.has_link(l)]
        for link in valid:
            state.set_link_down(link)
        shares = resolve_one(
            scenario.simulator, flow.src_asn, flow.src_metro,
            flow.src_prefix_id, flow.dest_prefix_id, state).shares
        assert not ({l for l, _f in shares} & set(valid))

    @given(flow_indices, link_subsets)
    @settings(max_examples=40, deadline=None)
    def test_outage_recovery_restores_baseline(self, world, idx,
                                               removed_links):
        """Link up-down-up returns exactly the original shares — the
        determinism that makes seen outages learnable."""
        scenario = world
        flow = scenario.traffic.flows[idx % len(scenario.traffic.flows)]
        state = AdvertisementState(scenario.wan)
        base = resolve_one(
            scenario.simulator, flow.src_asn, flow.src_metro,
            flow.src_prefix_id, flow.dest_prefix_id, state).shares
        valid = [l for l in removed_links if scenario.wan.has_link(l)]
        for link in valid:
            state.set_link_down(link)
        resolve_one(
            scenario.simulator, flow.src_asn, flow.src_metro,
            flow.src_prefix_id, flow.dest_prefix_id, state)
        for link in valid:
            state.set_link_up(link)
        after = resolve_one(
            scenario.simulator, flow.src_asn, flow.src_metro,
            flow.src_prefix_id, flow.dest_prefix_id, state).shares
        assert after == base

    @given(flow_indices, link_subsets)
    @settings(max_examples=40, deadline=None)
    def test_shortcut_equals_full_resolution(self, world, idx,
                                             removed_links):
        """The footprint rule must be semantically invisible: whichever
        removal set the oracle reuses a resolution from — empty or not,
        R -> R + {L} and back — the answer equals a full resolve, and the
        columns, which resolve every flow afresh, equal both."""
        scenario = world
        simulator = scenario.simulator
        oracle = ResolveOracle(simulator)
        flow = scenario.traffic.flows[idx % len(scenario.traffic.flows)]
        key = (flow.src_asn, flow.src_metro, flow.src_prefix_id,
               flow.dest_prefix_id)
        state = AdvertisementState(scenario.wan)

        def check():
            removed = state.removal_key(flow.dest_prefix_id)
            found = oracle.resolution(*key, state)
            full = oracle._resolve(*key, removed, False, False)
            assert found[:3] == full[:3]
            assert resolve_one(simulator, *key, state)[:3] == full[:3]
            return found.shares

        check()
        for link in removed_links:
            if scenario.wan.has_link(link):
                state.set_link_down(link)
        base = check()
        if not base:
            return
        primary = base[0][0]
        state.set_link_down(primary)
        assert primary not in {l for l, _f in check()}
        state.set_link_up(primary)
        assert check() == base

    @given(flow_indices,
           st.lists(st.tuples(link_subsets,
                              st.lists(st.integers(0, 30), max_size=3)),
                    min_size=2, max_size=4),
           st.lists(st.integers(0, 3), min_size=4, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_revisited_removal_sets_equal_full_resolution(
            self, world, idx, subsets, visits):
        """Removal sets asked for in any order, again and again — any
        links, and links of the ASes the flow's walk reads: links go and
        come back between any two, and whatever cached resolution the
        oracle's footprint rule starts from, the shares, the footprint
        and the pools are those of a full resolve and of the columns."""
        scenario = world
        simulator, wan = scenario.simulator, scenario.wan
        oracle = ResolveOracle(simulator)
        flow = scenario.traffic.flows[idx % len(scenario.traffic.flows)]
        key = (flow.src_asn, flow.src_metro, flow.src_prefix_id,
               flow.dest_prefix_id)
        walked = resolve_one(simulator, *key,
                             AdvertisementState(wan)).footprint
        near = [link.link_id for asn in walked if asn in wan.peer_asns
                for link in wan.links_of_peer(asn)]
        for visit in visits:
            anywhere, nearby = subsets[visit % len(subsets)]
            state = AdvertisementState(wan)
            for link in anywhere:
                if wan.has_link(link):
                    state.set_link_down(link)
            for nth in nearby if near else ():
                state.set_link_down(near[nth % len(near)])
            removed = state.removal_key(flow.dest_prefix_id)
            found = oracle.resolution(*key, state)
            assert found[:3] == oracle._resolve(
                *key, removed, False, False)[:3]
            assert resolve_one(simulator, *key, state)[:3] == found[:3]
