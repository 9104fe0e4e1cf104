"""Differential property test: the columnar walk vs. the per-flow oracle.

``IngressSimulator.resolve_shares`` resolves flows as columns; the
flow-by-flow walk it replaced (``tests/bgp/resolve_oracle.py``, with its
share cache and footprint rule) is the reference.  Under any removal set
— single links, whole peers, per-prefix withdrawals — any TE prepends and
any day, on either side of the flows' drift shift days, every row's
shares, footprint and pools must equal the oracle's ``Resolution`` as
sequences, fractions to the bit, for real flows, pocketed sources and
sources the graph does not have.  One world gives all the origin weight
to the second pick and cuts walks short (a walk through a routing table
never dead-ends before ``max_walk_depth``), so that rows whose only
delivering lane weighs nothing deliver nothing, pools included.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import AdvertisementState, SimulatorParams
from repro.experiments import Scenario, ScenarioParams
from tests.bgp.resolve_oracle import ResolveOracle, drifted_on

DAYS = 7
#: enough drift that shift days fall inside the horizon
DRIFT = dict(minor_drift_daily=0.05, major_drift_daily=0.03)
WORLDS = {
    "small": (ScenarioParams.small, 5, DRIFT),
    "small-short-walks": (ScenarioParams.small, 8,
                          dict(DRIFT, origin_split=1.0, max_walk_depth=1)),
    "medium": (ScenarioParams.medium, 3, DRIFT),
}


class World:
    """A scenario, its oracle, and the rows worth asking about."""

    def __init__(self, name):
        preset, seed, simulator = WORLDS[name]
        params = preset(seed=seed, horizon_days=DAYS)
        self.scenario = Scenario(replace(
            params, simulator=SimulatorParams(**simulator)))
        self.oracle = ResolveOracle(self.scenario.simulator)
        graph = self.scenario.graph
        self.flows = [(f.src_asn, f.src_metro, f.src_prefix_id,
                       f.dest_prefix_id) for f in self.scenario.traffic.flows]
        self.pocketed = sorted(
            (node.asn, metro) for node in graph.nodes()
            for pocket in node.pockets for metro in pocket.metros)
        self.absent = max(graph.asns) + 1000
        self.metros = list(graph.metros.names)


@pytest.fixture(scope="module", params=sorted(WORLDS))
def world(request):
    return World(request.param)


#: (kind, a destination prefix pick, a link pick)
removals = st.lists(st.tuples(st.sampled_from(["link", "peer", "withdraw"]),
                              st.integers(0, 10**6), st.integers(0, 10**6)),
                    max_size=5)
prepends = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                              st.integers(1, 4)), max_size=2)
#: rows asked besides every flow of the world: (kind, a pick, a source
#: prefix), a flow again or a new row from a pocket or an absent AS
rows = st.lists(st.tuples(st.sampled_from(["flow", "pocket", "absent"]),
                          st.integers(0, 10**6), st.integers(0, 10**5)),
                max_size=40)
#: None, or a shift day of one of the rows (minor or major), or the day
#: before it
days = st.one_of(st.none(), st.tuples(st.integers(0, 10**6),
                                      st.integers(0, 1), st.integers(-1, 0)))


def build(world, removal, te, picks, when):
    wan, flows = world.scenario.wan, world.flows
    prefixes = world.scenario._dest_prefixes
    state = AdvertisementState(wan)
    for kind, prefix, link in removal:
        link = wan.link_ids[link % len(wan.link_ids)]
        if kind == "link":
            state.set_link_down(link)
        elif kind == "peer":
            for other in wan.links_of_peer(wan.link(link).peer_asn):
                state.set_link_down(other.link_id)
        else:
            state.withdraw(prefixes[prefix % len(prefixes)], link)
    for prefix, link, times in te:
        state.prepend(prefixes[prefix % len(prefixes)],
                      wan.link_ids[link % len(wan.link_ids)], times)
    asked = list(flows)
    for kind, pick, source in picks:
        flow = flows[pick % len(flows)]
        if kind == "pocket" and world.pocketed:
            asn, metro = world.pocketed[pick % len(world.pocketed)]
            flow = (asn, metro, source, flow[3])
        elif kind == "absent":
            flow = (world.absent + pick % 3,
                    world.metros[pick % len(world.metros)], source, flow[3])
        asked.append(flow)
    day = None
    if when is not None:
        pick, which, before = when
        asn, _metro, source, dest = asked[pick % len(asked)]
        shift = world.scenario.simulator.drift_days(asn, source, dest)
        day = max(0, min(shift[which], DAYS - 1) + before)
    return state, asked, day


def columns(flows):
    asns, metros, sources, dests = zip(*flows)
    return (np.array(asns, dtype=np.int64), list(metros),
            np.array(sources, dtype=np.int64),
            np.array(dests, dtype=np.int64))


class TestColumnsEqualTheOracle:
    @given(removals, prepends, rows, days)
    @settings(max_examples=25, deadline=None)
    def test_every_row_equals_the_oracles_resolution(
            self, world, removal, te, picks, when):
        state, asked, day = build(world, removal, te, picks, when)
        asns, metros, sources, dests = columns(asked)
        (rows_, links, fracs, walked, read, pooled,
         pools) = world.scenario.simulator.resolve_shares(
            asns, metros, sources, dests, state,
            drifted_on(world.scenario.simulator, asns, sources, dests, day))
        assert [a.dtype for a in (rows_, links, fracs, walked, read, pooled,
                                  pools)] == [np.int64] * 2 + [
            np.float64] + [np.int64] * 4
        for i, flow in enumerate(asked):
            want = world.oracle.resolution(*flow, state, day)
            shares = tuple(zip(links[rows_ == i].tolist(),
                               [f.hex() for f in fracs[rows_ == i].tolist()]))
            assert shares == tuple((link, frac.hex())
                                   for link, frac in want.shares), flow
            assert tuple(read[walked == i].tolist()) == want.footprint, flow
            assert tuple(pools[pooled == i].tolist()) == want.pools, flow

    def test_the_wans_own_as_is_refused(self, world):
        flows = world.flows[:3] + [(world.scenario.wan.asn, world.metros[0],
                                    1, world.flows[0][3])]
        with pytest.raises(ValueError):
            world.scenario.simulator.resolve_shares(
                *columns(flows), AdvertisementState(world.scenario.wan))

    def test_the_worlds_have_what_the_draws_ask_for(self, world):
        """Pocketed sources, flows that cross a shift day within the
        horizon and walks of more than one AS occur; with short walks,
        rows whose source has a route deliver nothing."""
        sim = world.scenario.simulator
        assert world.pocketed
        shifts = np.array([sim.drift_days(a, s, d)
                           for a, _m, s, d in world.flows])
        assert ((shifts > 0) & (shifts < DAYS)).any(axis=0).all()
        state = AdvertisementState(world.scenario.wan)
        rows, _links, _fracs, walked, _read, _pooled, _pools = \
            sim.resolve_shares(*columns(world.flows), state)
        reads = np.bincount(walked, minlength=len(world.flows))
        assert (reads > 2).any()
        lost = np.setdiff1d(np.flatnonzero(reads > 1), rows)
        assert lost.size > 0 if sim.params.max_walk_depth == 1 else True
