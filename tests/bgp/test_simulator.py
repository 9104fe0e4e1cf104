"""Tests for the ingress simulator: the ground-truth routing engine."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.bgp import AdvertisementState, IngressSimulator, SimulatorParams
from repro.topology import (
    ASGraph,
    ASNode,
    ASRole,
    CloudWAN,
    DestPrefix,
    MetroCatalog,
    PeeringLink,
    Pocket,
    Region,
    Relationship,
)

from .resolve_oracle import (ResolveOracle, drift_days, drift_state,
                             drifted_on, resolve_one)


def build_world(pocket_metros=("sin",)):
    """Small deterministic world: tier1, transit, CDN with a pocket,
    stub; WAN with links to tier1, transit and CDN."""
    metros = MetroCatalog()
    g = ASGraph(metros)
    g.add_as(ASNode(1, ASRole.TIER1, ("sea", "lon", "sin", "nyc")))
    g.add_as(ASNode(2, ASRole.TRANSIT, ("sea", "nyc")))
    g.add_as(ASNode(3, ASRole.CDN, ("sea", "lon", "sin"),
                    pockets=(Pocket(frozenset(pocket_metros), (1,)),)))
    g.add_as(ASNode(4, ASRole.STUB, ("nyc",)))
    g.add_link(2, 1, Relationship.PROVIDER)
    g.add_link(3, 1, Relationship.PROVIDER)
    g.add_link(4, 2, Relationship.PROVIDER)

    links = [
        PeeringLink(0, 1, "sea", "sea-er1", 400.0),
        PeeringLink(1, 1, "lon", "lon-er1", 400.0),
        PeeringLink(2, 2, "sea", "sea-er2", 100.0),
        PeeringLink(3, 2, "nyc", "nyc-er1", 100.0),
        PeeringLink(4, 3, "sea", "sea-er3", 400.0),
        PeeringLink(5, 3, "lon", "lon-er2", 400.0),
        PeeringLink(6, 2, "nyc", "nyc-er2", 100.0),  # parallel to link 3
    ]
    regions = [Region("sea-region", "sea")]
    dests = [DestPrefix(0, "100.64.0.0/24", "sea-region", "web"),
             DestPrefix(1, "100.64.1.0/24", "sea-region", "storage")]
    wan = CloudWAN(8075, links, regions, dests, metros)
    return g, wan


@pytest.fixture()
def world():
    graph, wan = build_world()
    sim = IngressSimulator(graph, wan, SimulatorParams(), seed=1)
    return graph, wan, sim


class TestShareVector:
    def test_shares_sum_to_one(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        shares = resolve_one(sim, 4, "nyc", 100, 0, state).shares
        assert shares
        assert sum(f for _l, f in shares) == pytest.approx(1.0)

    def test_sorted_descending(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        shares = resolve_one(sim, 4, "nyc", 100, 0, state).shares
        fracs = [f for _l, f in shares]
        assert fracs == sorted(fracs, reverse=True)

    def test_deterministic(self, world):
        graph, wan = build_world()
        sim2 = IngressSimulator(graph, wan, SimulatorParams(), seed=1)
        _g, _wan, sim = world
        state1 = AdvertisementState(wan)
        state2 = AdvertisementState(wan)
        for prefix in range(20):
            assert (resolve_one(sim, 4, "nyc", prefix, 0, state1).shares
                    == resolve_one(sim2, 4, "nyc", prefix, 0, state2).shares)

    def test_seed_changes_outcomes(self):
        graph, wan = build_world()
        sim_a = IngressSimulator(graph, wan, seed=1)
        sim_b = IngressSimulator(graph, wan, seed=2)
        state = AdvertisementState(wan)
        differs = any(
            resolve_one(sim_a, 4, "nyc", p, 0, state).shares
            != resolve_one(sim_b, 4, "nyc", p, 0, state).shares
            for p in range(30)
        )
        assert differs

    def test_internal_traffic_rejected(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        with pytest.raises(ValueError):
            resolve_one(sim, wan.asn, "sea", 1, 0, state)

    def test_unknown_source_as_empty(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        assert resolve_one(sim, 999, "sea", 1, 0, state).shares == ()


class TestColumns:
    """``resolve_shares`` takes flows as columns and numbers its answer
    by their position."""

    FLOWS = [(4, "nyc", 100, 0), (999, "sea", 1, 0), (3, "sin", 600, 1),
             (3, "sea", 500, 0), (4, "nyc", 100, 0)]

    def test_a_batch_is_its_rows_alone(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        state.set_link_down(3)
        asns, metros, sources, dests = zip(*self.FLOWS)
        got = sim.resolve_shares(np.array(asns, dtype=np.int64), metros,
                                 np.array(sources, dtype=np.int64),
                                 np.array(dests, dtype=np.int64), state,
                                 drifted_on(sim, asns, sources, dests, 2))
        for array, dtype in zip(got, [np.int64, np.int64, np.float64]
                                + [np.int64] * 4):
            assert array.dtype == dtype
        rows, links, fracs, walked, read, pooled, pools = got
        assert np.all(np.diff(rows) >= 0)
        for i, flow in enumerate(self.FLOWS):
            alone = resolve_one(sim, *flow, state, day=2)
            assert tuple(zip(links[rows == i].tolist(),
                             fracs[rows == i].tolist())) == alone.shares
            assert tuple(read[walked == i].tolist()) == alone.footprint
            assert tuple(pools[pooled == i].tolist()) == alone.pools

    def test_no_rows(self, world):
        _g, wan, sim = world
        none = np.zeros(0, dtype=np.int64)
        got = sim.resolve_shares(none, [], none, none,
                                 AdvertisementState(wan))
        assert [array.size for array in got] == [0] * 7
        assert got[2].dtype == np.float64

    def test_unknown_metro_raises(self, world):
        _g, wan, sim = world
        with pytest.raises(KeyError):
            resolve_one(sim, 4, "atlantis", 100, 0, AdvertisementState(wan))


class TestDirectDelivery:
    def test_stub_routes_via_provider_chain(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        # stub 4 -> transit 2 (direct peer): delivers on 2's links
        shares = resolve_one(sim, 4, "nyc", 100, 0, state).shares
        peers = {wan.link(l).peer_asn for l, _f in shares}
        assert peers == {2}

    def test_hot_potato_prefers_near_link(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        # the stub is in nyc; transit 2 has links in sea and nyc — the
        # nyc link should be the byte-weighted favourite across prefixes
        from collections import Counter
        mass = Counter()
        for prefix in range(200):
            for link, frac in resolve_one(sim, 4, "nyc", prefix, 0,
                                          state).shares:
                mass[link] += frac
        assert mass[3] + mass[6] > mass[2]  # nyc links beat sea link

    def test_cdn_delivers_on_own_links(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        shares = resolve_one(sim, 3, "sea", 500, 0, state).shares
        peers = {wan.link(l).peer_asn for l, _f in shares}
        assert peers == {3}


class TestPockets:
    def test_pocket_traffic_avoids_own_far_links(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        # CDN 3's sin metro is a pocket with provider tier-1: traffic from
        # sin cannot use the CDN's sea/lon links and goes via AS 1
        shares = resolve_one(sim, 3, "sin", 600, 0, state).shares
        peers = {wan.link(l).peer_asn for l, _f in shares}
        assert peers == {1}


class TestWithdrawalsAndOutages:
    def test_withdrawn_link_not_used(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        base = resolve_one(sim, 4, "nyc", 100, 0, state).shares
        primary = base[0][0]
        state.withdraw(0, primary)
        shifted = resolve_one(sim, 4, "nyc", 100, 0, state).shares
        assert shifted
        assert primary not in {l for l, _f in shifted}

    def test_withdrawal_scoped_to_prefix(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        base = resolve_one(sim, 4, "nyc", 100, 1, state).shares
        state.withdraw(0, base[0][0])  # withdraw prefix 0 only
        unaffected = resolve_one(sim, 4, "nyc", 100, 1, state).shares
        assert unaffected == base

    def test_outage_affects_all_prefixes(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        base0 = resolve_one(sim, 4, "nyc", 100, 0, state).shares
        state.set_link_down(base0[0][0])
        for dest in (0, 1):
            shares = resolve_one(sim, 4, "nyc", 100, dest, state).shares
            assert base0[0][0] not in {l for l, _f in shares}

    def test_full_peer_withdrawal_reroutes_as_level(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        # take down ALL of transit 2's links: stub traffic climbs to
        # tier-1 and arrives on AS 1's links instead of being lost
        for link in wan.links_of_peer(2):
            state.set_link_down(link.link_id)
        shares = resolve_one(sim, 4, "nyc", 100, 0, state).shares
        assert shares
        peers = {wan.link(l).peer_asn for l, _f in shares}
        assert peers == {1}

    def test_everything_down_traffic_lost(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        for link in wan.link_ids:
            state.set_link_down(link)
        assert resolve_one(sim, 4, "nyc", 100, 0, state).shares == ()

    def test_shortcut_unrelated_removal_is_identity(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        base = resolve_one(sim, 4, "nyc", 100, 0, state).shares
        # take down a CDN link the stub's traffic never touches
        state.set_link_down(5)
        assert resolve_one(sim, 4, "nyc", 100, 0, state).shares == base

    def test_same_removal_same_outcome(self, world):
        """Withdrawal outcomes are deterministic: the seen-outage
        learnability property (DESIGN.md choice 1)."""
        _g, wan, sim = world
        state = AdvertisementState(wan)
        base = resolve_one(sim, 4, "nyc", 100, 0, state).shares
        primary = base[0][0]
        state.set_link_down(primary)
        first = resolve_one(sim, 4, "nyc", 100, 0, state).shares
        state.set_link_up(primary)
        assert resolve_one(sim, 4, "nyc", 100, 0, state).shares == base
        state.set_link_down(primary)
        assert resolve_one(sim, 4, "nyc", 100, 0, state).shares == first


class TestFootprintRule:
    """A resolution made under one removal set stands under another
    exactly when the change (``IngressSimulator.touched``) reaches
    neither an AS its walk read nor a link of a pool it ranked."""

    STUB = (4, "nyc", 100, 0)
    POCKET = (3, "sin", 600, 0)

    @staticmethod
    def fresh(wan, removed):
        """What a simulator with nothing cached says under ``removed``."""
        graph, _wan = build_world()
        state = AdvertisementState(wan)
        for link in removed:
            state.set_link_down(link)
        return resolve_one(IngressSimulator(graph, wan, SimulatorParams(),
                                            seed=1),
                           *TestFootprintRule.STUB, state).shares

    @staticmethod
    def stands(sim, read, after):
        """The change from ``read``'s removal set to ``after`` misses
        its footprint and its pools."""
        asns, links = sim.touched(read.removed, after)
        return asns.isdisjoint(read.footprint) and links.isdisjoint(
            read.pools)

    def test_footprint_is_the_walked_ases(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        assert resolve_one(sim, *self.STUB, state).footprint == (4, 2)
        # a pocket's providers are read even when the walk ends early
        assert set(resolve_one(sim, *self.POCKET, state).footprint) == {3, 1}

    def test_reuse_from_a_non_empty_removal_set(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        state.set_link_down(5)            # CDN link, off the stub's walk
        first = resolve_one(sim, *self.STUB, state)
        state.set_link_down(0)            # tier-1 link, still off it
        second = resolve_one(sim, *self.STUB, state)
        assert self.stands(sim, first, second.removed)
        assert second[:3] == first[:3]
        state.set_link_up(5)              # {5, 0} -> {0}
        third = resolve_one(sim, *self.STUB, state)
        assert self.stands(sim, second, third.removed)
        assert third[:3] == first[:3]
        assert first.shares == self.fresh(wan, {0})
        state.set_link_down(3)            # a link of the delivering AS
        moved = resolve_one(sim, *self.STUB, state)
        assert not self.stands(sim, third, moved.removed)
        assert moved.shares == self.fresh(wan, {0, 3})

    def test_a_removed_link_reaches_only_the_pools_that_held_it(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        read = resolve_one(sim, *self.STUB, state)
        # transit 2 delivers at nyc; its sea link is beyond the radius
        assert read.footprint == (4, 2) and set(read.pools) == {3, 6}
        state.set_link_down(2)            # the deliverer's, in no pool
        again = resolve_one(sim, *self.STUB, state)
        assert self.stands(sim, read, again.removed)
        assert again[:3] == read[:3]
        assert read.shares == self.fresh(wan, {2})
        state.set_link_down(3)            # a pool member
        moved = resolve_one(sim, *self.STUB, state)
        assert not self.stands(sim, again, moved.removed)
        assert moved.pools == (6,)
        assert moved.shares == self.fresh(wan, {2, 3})

    def test_a_restored_link_reaches_every_pool_of_its_owner(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        state.set_link_down(2)
        read = resolve_one(sim, *self.STUB, state)
        assert 2 not in read.pools        # no pool names the link, and yet
        state.set_link_up(2)
        again = resolve_one(sim, *self.STUB, state)
        assert not self.stands(sim, read, again.removed)
        assert again == read._replace(removed=frozenset())
        assert again.shares == self.fresh(wan, set())

    def test_a_pocket_pools_only_its_own_metros_links(self):
        """The CDN's sea link is its own but outside the pocket: it is in
        no pool of a flow from the pocket, whoever delivers."""
        for metros, pools in (({"sin"}, {0, 1}), ({"sin", "lon"}, {5})):
            graph, wan = build_world(metros)
            sim = IngressSimulator(graph, wan, SimulatorParams(), seed=1)
            state = AdvertisementState(wan)
            read = resolve_one(sim, *self.POCKET, state)
            assert set(read.pools) == pools
            state.set_link_down(4)
            again = resolve_one(sim, *self.POCKET, state)
            assert self.stands(sim, read, again.removed)
            assert again[:3] == read[:3]
            assert read[:3] == ResolveOracle(sim)._resolve(
                *self.POCKET, frozenset({4}), False, False)[:3]

    def test_last_link_of_a_peer(self, world):
        """Removing a peer's last link changes the tables, and with them
        the rows of the ASes behind it."""
        _g, wan, sim = world
        state = AdvertisementState(wan)
        for link in (2, 3):
            state.set_link_down(link)
        before = resolve_one(sim, *self.STUB, state)
        assert [l for l, _f in before.shares] == [6]
        # same tables so far: no AS is touched, only pools of the links
        assert sim.touched(frozenset(), frozenset({2, 3})) == (set(), {2, 3})
        # ... and bringing them back touches their owner, whatever its pools
        assert sim.touched(frozenset({2, 3}), frozenset()) == ({2}, set())
        state.set_link_down(6)            # transit 2 is no longer a peer
        assert sim.routing_table(frozenset({2, 3, 6})) is not \
            sim.routing_table(frozenset({2, 3}))
        assert {2, 4} <= sim.touched(frozenset({2, 3}),
                                     frozenset({2, 3, 6}))[0]
        after = resolve_one(sim, *self.STUB, state).shares
        assert {wan.link(l).peer_asn for l, _f in after} == {1}
        assert after == self.fresh(wan, {2, 3, 6})
        state.set_link_up(6)
        back = resolve_one(sim, *self.STUB, state)
        assert self.stands(sim, before, back.removed)
        assert back[:3] == before[:3]

    def test_walked_as_loses_every_link_and_gets_them_back(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        base = resolve_one(sim, *self.POCKET, state).shares
        assert {wan.link(l).peer_asn for l, _f in base} == {1}
        for link in wan.links_of_peer(1):
            state.set_link_down(link.link_id)
        # the pocket can only leave through tier-1, which has no route
        assert resolve_one(sim, *self.POCKET, state).shares == ()
        state.set_link_down(4)            # unrelated: still no route
        assert resolve_one(sim, *self.POCKET, state).shares == ()
        state.set_link_up(4)
        for link in wan.links_of_peer(1):
            state.set_link_up(link.link_id)
        assert resolve_one(sim, *self.POCKET, state).shares == base

    def test_seeded_for_equals_the_exhaustive_scan(self, world):
        _g, wan, sim = world
        from itertools import combinations

        def scan(removed):
            return frozenset(
                asn for asn in wan.peer_asns
                if any(l.link_id not in removed
                       for l in wan.links_of_peer(asn)))

        # every subset of the links, plus an id the WAN does not have
        lost_a_peer = 0
        for size in range(len(wan.link_ids) + 1):
            for subset in combinations(list(wan.link_ids) + [99], size):
                removed = frozenset(subset)
                assert sim.seeded_for(removed) == scan(removed)
                lost_a_peer += len(scan(removed)) < len(wan.peer_asns)
        assert lost_a_peer


class TestDrift:
    def test_no_day_means_no_drift(self, world):
        _g, wan, sim = world
        assert drift_state(sim, 4, 100, 0, None) == (False, False)

    def test_drift_monotone_in_time(self, world):
        _g, wan, sim = world
        minor_day, major_day = drift_days(sim, 4, 100, 0)
        assert drift_state(sim, 4, 100, 0, minor_day - 1)[0] is False
        assert drift_state(sim, 4, 100, 0, minor_day)[0] is True
        assert drift_state(sim, 4, 100, 0, major_day)[1] is True

    def test_some_flows_drift_within_horizon(self, world):
        graph, wan = build_world()
        sim = IngressSimulator(graph, wan, SimulatorParams(
            minor_drift_daily=0.05), seed=3)
        drifted = sum(
            1 for p in range(200) if drift_days(sim, 4, p, 0)[0] < 28)
        assert 0 < drifted < 200

    def test_drift_changes_shares(self, world):
        graph, wan = build_world()
        sim = IngressSimulator(graph, wan, SimulatorParams(
            minor_drift_daily=0.5), seed=3)
        state = AdvertisementState(wan)
        changed = 0
        for p in range(50):
            before = resolve_one(sim, 4, "nyc", p, 0, state, day=0).shares
            after = resolve_one(sim, 4, "nyc", p, 0, state, day=27).shares
            if before != after:
                changed += 1
        assert changed > 0


class TestRoutingTableAPI:
    def test_as_distance(self, world):
        _g, _wan, sim = world
        assert sim.as_distance(1) == 1   # direct peer
        assert sim.as_distance(2) == 1   # direct peer
        assert sim.as_distance(4) == 2   # stub behind transit
        assert sim.as_distance(999) is None

    def test_cache_stats_populate(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        resolve_one(sim, 4, "nyc", 100, 0, state)
        stats = sim.cache_stats()
        assert stats["share_entries"] >= 1
        assert stats["tables_by_seeded"] >= 1

    def test_a_graph_mutated_after_build_is_refused(self, world):
        """The bias column and the walk's frame are built once, over the
        graph as it was: a table for a changed graph, cached or not, is
        refused rather than computed over a stale frame."""
        graph, wan, sim = world
        sim.routing_table(frozenset())
        graph.add_link(4, 1, Relationship.PROVIDER)
        for removed in (frozenset(), frozenset({0, 1})):
            with pytest.raises(RuntimeError, match="graph changed"):
                sim.routing_table(removed)
        with pytest.raises(RuntimeError, match="graph changed"):
            resolve_one(sim, 4, "nyc", 100, 0, AdvertisementState(wan))
        assert sim.cache_stats()["table_full_rebuilds"] == 1


class TestCacheStats:
    def test_all_caches_reported(self, world):
        _g, wan, sim = world
        stats = sim.cache_stats()
        for key in ("share_entries", "entry_metro_entries",
                    "ranked_pool_entries", "tables_by_seeded",
                    "share_hits", "share_misses", "share_evictions",
                    "table_hits", "table_misses", "table_evictions",
                    "table_full_rebuilds", "table_incremental_updates",
                    "ranked_pool_hits", "ranked_pool_misses",
                    "interned_pools", "frame_tables"):
            assert key in stats, key
            assert stats[key] == 0

    def test_every_key_the_benchmark_reads_is_reported(self, world):
        """The churn workload reads the simulator's counters by name
        (``bgp["..."]``) half-way through a run: each of them is here."""
        churn = (Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
                 / "tipsybench" / "churn.py")
        read = set(re.findall(r'bgp\["(\w+)"\]', churn.read_text()))
        assert len(read) >= 5
        assert read <= set(world[2].cache_stats())

    def test_hit_miss_counters(self, world):
        """``share_*`` count the split memo: one look-up per delivering
        lane, the stub's one provider being one lane."""
        _g, wan, sim = world
        state = AdvertisementState(wan)
        resolve_one(sim, 4, "nyc", 100, 0, state, day=0)
        stats = sim.cache_stats()
        assert stats["share_misses"] == 1
        assert stats["share_hits"] == 0
        resolve_one(sim, 4, "nyc", 100, 0, state, day=0)
        stats = sim.cache_stats()
        assert stats["share_hits"] == 1
        assert stats["share_misses"] == 1
        # a different flow re-uses the routing table but not the split
        resolve_one(sim, 4, "nyc", 101, 0, state, day=0)
        stats = sim.cache_stats()
        assert stats["share_misses"] == 2
        assert (stats["table_hits"], stats["table_misses"]) == (2, 1)


class TestBoundedCaches:
    def test_table_cache_bounded_and_counted(self):
        graph, wan = build_world()
        sim = IngressSimulator(graph, wan, SimulatorParams(table_cache_size=2),
                               seed=1)
        # every key deseeds at least one peer (all its links removed), so
        # each needs a table of its own
        keys = [frozenset({0, 1}), frozenset({4, 5}), frozenset({2, 3, 6}),
                frozenset({0, 1, 4, 5}), frozenset({0, 1, 2, 3, 6})]
        assert len({sim.seeded_for(key) for key in keys}) == len(keys)
        for key in keys:
            sim.routing_table(key)
        stats = sim.cache_stats()
        assert stats["tables_by_seeded"] <= 2
        assert stats["table_evictions"] > 0
        # one compute per distinct seeded set missed, none repaired
        assert stats["table_full_rebuilds"] == len(keys)
        assert stats["table_incremental_updates"] == 0
        # a hit computes nothing
        table = sim.routing_table(keys[-1])
        assert sim.cache_stats()["table_full_rebuilds"] == len(keys)
        # removal keys that keep every peer seeded go dark on no peer:
        # the first computes the full-availability table, the others
        # take it from the cache
        partial = [frozenset({0}), frozenset({2, 3}), frozenset({0, 4})]
        assert len({sim.seeded_for(key) for key in keys + partial}) == len(
            keys) + 1
        full = {sim.routing_table(key) for key in partial}
        assert len(full) == 1 and table not in full
        stats = sim.cache_stats()
        assert stats["table_misses"] == len(keys) + 1
        # the repeat of the last key, then every partial key but the first
        assert stats["table_hits"] == len(partial)
        assert stats["table_full_rebuilds"] == len(keys) + 1

    def test_evicted_table_recomputed_identically(self):
        graph, wan = build_world()
        sim = IngressSimulator(graph, wan, SimulatorParams(table_cache_size=1),
                               seed=1)
        first = sim.routing_table(frozenset({0, 1}))
        sim.routing_table(frozenset({2}))          # evicts the first table
        again = sim.routing_table(frozenset({0, 1}))
        assert again is not first
        assert again.columns_equal(first)

    def test_a_full_frame_starts_afresh(self, monkeypatch):
        """With room for two tables, a call that needs another starts
        the walk's frame afresh with all of its tables; every answer
        equals a fresh simulator's."""
        from repro.bgp import simulator as bgp_simulator

        monkeypatch.setattr(bgp_simulator, "_FRAME_SLOTS", 2)
        graph, wan = build_world()
        sim = IngressSimulator(graph, wan, SimulatorParams(), seed=1)
        asns, metros, sources, dests = zip(*TestColumns.FLOWS)
        columns = (np.array(asns, dtype=np.int64), metros,
                   np.array(sources, dtype=np.int64),
                   np.array(dests, dtype=np.int64))
        sizes = []
        # links down, then per prefix 1 withdrawn links: each set
        # deseeds a peer, and the last call reads the first call's
        # table and a new one
        for down, withdrawn in (([4, 5], []), ([2, 3, 6], []),
                                ([4, 5], [0, 1])):
            state = AdvertisementState(wan)
            for link in down:
                state.set_link_down(link)
            for link in withdrawn:
                state.withdraw(1, link)
            drifted = drifted_on(sim, asns, sources, dests, 2)
            fresh = IngressSimulator(graph, wan, SimulatorParams(), seed=1)
            for mine, theirs in zip(
                    sim.resolve_shares(*columns, state, drifted),
                    fresh.resolve_shares(*columns, state, drifted)):
                assert np.array_equal(mine, theirs)
            sizes.append(sim.cache_stats()["frame_tables"])
        assert sizes == [1, 2, 2]

    def test_export_gauges_includes_rates(self):
        from repro.obs import runtime as obs

        graph, wan = build_world()
        sim = IngressSimulator(graph, wan, SimulatorParams(), seed=1)
        sim.routing_table(frozenset())
        sim.routing_table(frozenset())
        obs.enable(fresh=True)
        try:
            sim.export_gauges()
            gauges = obs.snapshot().gauges
            assert gauges["bgp.simulator.table_hit_rate"] == 0.5
            assert "bgp.simulator.share_hit_rate" in gauges
            assert "bgp.simulator.table_full_rebuilds" in gauges
        finally:
            obs.disable()



class TestTableLookups:
    """Every routing table a call reads comes through ``routing_table``,
    and only it computes one: the benchmark's traced pass times the
    ``bgp.routing_table`` layer by wrapping that method on the class, so
    a table reached another way would drop out of the layer's time with
    no error."""

    def test_tables_are_read_and_built_only_through_routing_table(
            self, monkeypatch):
        from repro.bgp import simulator as bgp_simulator
        from repro.bgp.propagation import RoutingTable

        graph, wan = build_world()
        sim = IngressSimulator(graph, wan, SimulatorParams(), seed=1)
        handed, read, computed = [], [], []
        depth = [0]
        lookup = IngressSimulator.routing_table
        compute = bgp_simulator.compute_routing_table

        def routing_table(self, removed):
            depth[0] += 1
            try:
                table = lookup(self, removed)
            finally:
                depth[0] -= 1
            handed.append(table)
            return table

        def compute_routing_table(*args):
            computed.append(depth[0])
            return compute(*args)

        def spy(owner, name, tables_of):
            real = getattr(owner, name)

            def call(*args):
                read.extend(tables_of(*args))
                return real(*args)
            monkeypatch.setattr(owner, name, call)

        # wrapped on the class, the way the tracer does it
        monkeypatch.setattr(IngressSimulator, "routing_table", routing_table)
        monkeypatch.setattr(bgp_simulator, "compute_routing_table",
                            compute_routing_table)
        # the walk reads a call's tables through its frame, a pocket's
        # decision reads one, and ``touched`` compares two
        spy(IngressSimulator, "_framed", lambda _sim, tables: tables)
        spy(IngressSimulator, "_decide",
            lambda _sim, _pocket, _removed, table: (table,))
        spy(RoutingTable, "changed_asns", lambda table, other: (table, other))

        state = AdvertisementState(wan)
        for link in wan.links_of_peer(1):   # peer 1 goes dark
            state.set_link_down(link.link_id)
        state.withdraw(1, 3)
        asns, metros, sources, dests = zip(*TestColumns.FLOWS)
        columns = (np.array(asns, dtype=np.int64), metros,
                   np.array(sources, dtype=np.int64),
                   np.array(dests, dtype=np.int64), state)
        # a call's tables, new and then cached; and ``touched`` after
        # which peer 3 goes dark, a table of its own
        for call in (lambda: sim.resolve_shares(*columns),
                     lambda: sim.resolve_shares(*columns),
                     lambda: sim.touched(frozenset({4}), frozenset({4, 5}))):
            del handed[:], read[:]
            call()
            assert read and {id(table) for table in read} <= {
                id(table) for table in handed}
        # peer 1 dark, none dark, peer 3 dark: each built inside one look-up
        assert computed == [1, 1, 1]
