"""Differential property test: delta share expansion vs. from scratch.

``Scenario._expansion`` keeps a few expansions by content and derives a
miss from the cached one it estimates cheapest, re-resolving only the
rows the change can reach.  Whatever sequence of state changes and day
steps led there, the arrays must equal — dtype and value — what a
scenario that has never streamed computes flow by flow, and what each
row is recorded to have read must equal a direct ``_resolve``, and the
rows it counts per AS read and per pool link — count arrays kept by
delta from the base — must equal a count over those pairs.  An hour's
IPFIX samples are drawn when first read: read late, out of order, twice
or never, each read equals an eager draw.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import AdvertisementState, SimulatorParams
from repro.experiments import Scenario, ScenarioParams
from repro.experiments.scenario import _EXPANSION_SLOTS, _rows_per
from tests.bgp.resolve_oracle import ResolveOracle, drift_state

DAYS = 7


def build() -> Scenario:
    params = ScenarioParams.small(seed=21, horizon_days=DAYS)
    # enough drift that day steps cross minor and major shift days
    return Scenario(replace(params, simulator=SimulatorParams(
        minor_drift_daily=0.05, major_drift_daily=0.03)))


@pytest.fixture(scope="module")
def scenario():
    """Shared by every example, so each starts from whatever expansions
    the examples before it left in the LRU."""
    return build()


def from_scratch(scenario, oracle, day, state):
    rows, links, fracs = [], [], []
    for i, flow in enumerate(scenario.traffic.flows):
        for link_id, frac in oracle.resolve_shares(
                flow.src_asn, flow.src_metro, flow.src_prefix_id,
                flow.dest_prefix_id, state, day):
            rows.append(i)
            links.append(link_id)
            fracs.append(frac)
    return (np.array(rows, dtype=np.int64), np.array(links, dtype=np.int64),
            np.array(fracs))


OPS = ["set_link_down", "set_link_up", "peer_down", "withdraw", "announce",
       "prepend", "clear_prepend", "day"]
#: (operation, destination prefix, link or day, prepend count); more
#: steps than the LRU has slots, so eviction and re-derivation happen
steps = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 23), st.integers(0, 60),
              st.integers(1, 3)),
    min_size=_EXPANSION_SLOTS + 4, max_size=3 * _EXPANSION_SLOTS)


def apply(step, state, wan):
    name, prefix, link, times = step
    link = wan.link_ids[link % len(wan.link_ids)]
    if name == "peer_down":
        # a peer losing every link: the routing tables change
        for other in wan.links_of_peer(wan.link(link).peer_asn):
            state.set_link_down(other.link_id)
    elif name in ("set_link_down", "set_link_up"):
        getattr(state, name)(link)
    elif name == "prepend":
        state.prepend(prefix, link, times)
    else:
        getattr(state, name)(prefix, link)


def assert_counts(scenario, held):
    """The per-AS and per-link row counts a derive carried over from its
    base equal a fresh count of the expansion's own pairs."""
    assert np.array_equal(held.rows_reading, _rows_per(
        held.footprint_codes, len(held.rows_reading)))
    assert np.array_equal(held.rows_pooling, _rows_per(
        held.pool_links, len(held.rows_pooling)))


def pairs(rows, values):
    """(row, value) pairs as one sorted (n, 2) array."""
    both = np.array([rows, values], dtype=np.int64).reshape(2, -1)
    return both[:, np.lexsort(both[::-1])].T


def read_from_scratch(scenario, oracle, day, state):
    """The (row, AS) and (row, link) pairs a direct ``_resolve`` of every
    flow reads: what an expansion must hold, no more and no less."""
    simulator = scenario.simulator
    walked, pooled = [], []
    for i, flow in enumerate(scenario.traffic.flows):
        prefix = flow.dest_prefix_id
        full = oracle._resolve(
            flow.src_asn, flow.src_metro, flow.src_prefix_id, prefix,
            state.removal_key(prefix),
            *drift_state(simulator, flow.src_asn, flow.src_prefix_id,
                         prefix, day),
            state.prepends_for(prefix) or None)
        walked += [(i, asn) for asn in full.footprint]
        pooled += [(i, link) for link in full.pools]
    return pairs(*zip(*walked)), pairs(*zip(*pooled))


#: a probe: take a link down, or withdraw one prefix at it
probes = st.lists(
    st.tuples(st.sampled_from(["set_link_down", "withdraw"]),
              st.integers(0, 23), st.integers(0, 60), st.just(1)),
    min_size=2, max_size=4, unique_by=lambda probe: probe[2])


class TestRevisitedStates:
    """S -> S+L1 -> S+L2 -> S+L1 -> day step -> S ...: a state asked for
    again after others, so that a derive starts from a base that is not
    the latest expansion (or is a hit)."""

    @given(st.lists(st.integers(0, 60), max_size=3), probes,
           st.lists(st.tuples(st.integers(0, 4), st.integers(0, DAYS - 1)),
                    min_size=5, max_size=9))
    @settings(max_examples=12, deadline=None)
    def test_equals_a_fresh_scenarios_loop(self, scenario, down, probes,
                                           visits):
        reference = build()
        oracle = ResolveOracle(reference.simulator)
        state = AdvertisementState(scenario.wan)
        mirror = AdvertisementState(reference.wan)
        for link in down:
            for each in (state, mirror):
                apply(("set_link_down", 0, link, 1), each, each.wan)
        undo = {"set_link_down": "set_link_up", "withdraw": "announce"}
        for which, day in visits:
            # visit 0 is S itself; the others S plus one probe
            probe = probes[which - 1] if 0 < which <= len(probes) else None
            if probe is not None:
                apply(probe, state, scenario.wan)
                apply(probe, mirror, reference.wan)
            got = scenario._expansion(day, state)
            want = from_scratch(reference, oracle, day, mirror)
            for mine, theirs in zip(got, want):
                assert mine.dtype == theirs.dtype
                assert np.array_equal(mine, theirs), (which, day)
            held = list(scenario._expansions.values())[-1]
            assert held.rows is got[0]
            walked, pooled = read_from_scratch(reference, oracle, day,
                                               mirror)
            assert np.array_equal(
                pairs(held.footprint_rows,
                      scenario._asns[held.footprint_codes]), walked)
            assert np.array_equal(
                pairs(held.pool_rows, held.pool_links), pooled)
            assert_counts(scenario, held)
            if probe is not None and probe[2] not in down:
                for each in (state, mirror):
                    apply((undo[probe[0]],) + probe[1:], each, each.wan)


class TestDeltaExpansion:
    @given(steps)
    @settings(max_examples=12, deadline=None)
    def test_equals_a_fresh_scenarios_loop(self, scenario, sequence):
        reference = build()
        oracle = ResolveOracle(reference.simulator)
        state = AdvertisementState(scenario.wan)
        mirror = AdvertisementState(reference.wan)
        day = 0
        for step in sequence:
            if step[0] == "day":
                day = step[2] % DAYS
            else:
                apply(step, state, scenario.wan)
                apply(step, mirror, reference.wan)
            got = scenario._expansion(day, state)
            want = from_scratch(reference, oracle, day, mirror)
            for mine, theirs in zip(got, want):
                assert mine.dtype == theirs.dtype
                assert np.array_equal(mine, theirs), step
            held = list(scenario._expansions.values())[-1]
            assert held.rows is got[0]
            assert_counts(scenario, held)
            assert len(scenario._expansions) <= _EXPANSION_SLOTS
        # hit or miss, the caller's arrays are the cached ones
        assert scenario._expansion(day, state)[0] is got[0]

    def test_shift_days_are_crossed(self, scenario):
        """The world above does exercise the drift part of the rule."""
        shifts = scenario._shift_days
        assert ((shifts > 0) & (shifts < DAYS)).any(axis=0).all()


class TestLazySamples:
    """``HourColumns.sampled_bytes`` is drawn on first read: read late,
    out of order, twice or never, each read equals an eager draw over
    the hour's ``true_bytes``."""

    @given(st.lists(st.tuples(st.integers(0, DAYS * 24 - 1),
                              st.integers(-1, 60)),
                    min_size=1, max_size=6), st.data())
    @settings(max_examples=12, deadline=None)
    def test_any_read_order_equals_an_eager_draw(self, scenario, hours,
                                                 data):
        state = AdvertisementState(scenario.wan)
        streamed = []
        for hour, link in hours:
            # -1: the hour as it is, else with one link down (a probe)
            down = scenario.wan.link_ids[link % len(scenario.wan.link_ids)]
            if link >= 0:
                state.set_link_down(down)
            streamed.append(next(iter(scenario.stream(
                hour, hour + 1, state, apply_outages=False))))
            if link >= 0:
                state.set_link_up(down)
        reads = data.draw(st.lists(st.integers(0, len(streamed) - 1),
                                   max_size=2 * len(streamed)))
        for at in reads:
            cols = streamed[at]
            assert np.array_equal(cols.sampled_bytes,
                                  scenario.exporter.sample_bytes(
                                      cols.true_bytes, cols.hour))
