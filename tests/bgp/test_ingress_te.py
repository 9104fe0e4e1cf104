"""Tests for ingress traffic engineering via AS-path prepending (§2).

The paper calls prepending "coarse grained and heuristic — they may
just be ignored by ASes along the path"; the simulator honours it
probabilistically and only as a preference demotion, never a hard
withdrawal.
"""

import pytest

from repro.bgp import AdvertisementState, IngressSimulator, SimulatorParams

from .resolve_oracle import resolve_one
from .test_simulator import build_world


@pytest.fixture()
def world():
    graph, wan = build_world()
    sim = IngressSimulator(graph, wan, SimulatorParams(te_compliance=1.0),
                           seed=1)
    return graph, wan, sim


class TestStateApi:
    def test_prepend_roundtrip(self, world):
        _g, wan, _sim = world
        state = AdvertisementState(wan)
        state.prepend(0, 3, times=2)
        assert state.prepend_key(0) == ((3, 2),)
        assert state.prepends_for(0) == {3: 2}
        assert state.prepend_key(1) == ()
        state.clear_prepend(0, 3)
        assert state.prepend_key(0) == ()

    def test_invalid_prepend(self, world):
        _g, wan, _sim = world
        state = AdvertisementState(wan)
        with pytest.raises(ValueError):
            state.prepend(0, 3, times=0)
        with pytest.raises(KeyError):
            state.prepend(0, 999)

    def test_clear_resets_prepends(self, world):
        _g, wan, _sim = world
        state = AdvertisementState(wan)
        state.prepend(0, 3)
        state.clear()
        assert state.prepend_key(0) == ()

    def test_prepend_bumps_version(self, world):
        _g, wan, _sim = world
        state = AdvertisementState(wan)
        v = state.version
        state.prepend(0, 3)
        assert state.version > v


class TestRoutingEffect:
    def test_prepending_sheds_traffic(self, world):
        """With full compliance, heavy prepending demotes the link out
        of most flows' primary slot."""
        _g, wan, sim = world
        clean = AdvertisementState(wan)
        shifted = AdvertisementState(wan)
        # find the favourite nyc link across flows, then prepend it away
        mass = {}
        for prefix in range(100):
            for link, frac in resolve_one(sim, 4, "nyc", prefix, 0,
                                          clean).shares:
                mass[link] = mass.get(link, 0.0) + frac
        favourite = max(mass, key=mass.get)
        shifted.prepend(0, favourite, times=4)
        mass_after = {}
        for prefix in range(100):
            for link, frac in resolve_one(sim, 4, "nyc", prefix, 0,
                                          shifted).shares:
                mass_after[link] = mass_after.get(link, 0.0) + frac
        assert mass_after.get(favourite, 0.0) < mass[favourite] * 0.5

    def test_prepending_scoped_to_prefix(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        base = resolve_one(sim, 4, "nyc", 50, 1, state).shares
        state.prepend(0, base[0][0], times=4)  # TE on prefix 0 only
        assert resolve_one(sim, 4, "nyc", 50, 1, state).shares == base

    def test_prepending_is_soft_unlike_withdrawal(self, world):
        """A fully-prepended-everywhere prefix still gets delivered —
        prepending demotes, withdrawal removes."""
        _g, wan, sim = world
        state = AdvertisementState(wan)
        for link in wan.link_ids:
            state.prepend(0, link, times=4)
        shares = resolve_one(sim, 4, "nyc", 60, 0, state).shares
        assert shares  # traffic still arrives somewhere
        assert sum(f for _l, f in shares) == pytest.approx(1.0)

    def test_compliance_zero_means_ignored(self):
        graph, wan = build_world()
        sim = IngressSimulator(graph, wan,
                               SimulatorParams(te_compliance=0.0), seed=1)
        clean = AdvertisementState(wan)
        te = AdvertisementState(wan)
        base = resolve_one(sim, 4, "nyc", 70, 0, clean).shares
        te.prepend(0, base[0][0], times=4)
        assert resolve_one(sim, 4, "nyc", 70, 0, te).shares == base

    def test_clearing_prepend_restores_baseline(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        base = resolve_one(sim, 4, "nyc", 80, 0, state).shares
        state.prepend(0, base[0][0], times=4)
        assert resolve_one(sim, 4, "nyc", 80, 0, state).shares != base
        state.clear_prepend(0, base[0][0])
        assert resolve_one(sim, 4, "nyc", 80, 0, state).shares == base

    def test_prepend_combines_with_withdrawal(self, world):
        _g, wan, sim = world
        state = AdvertisementState(wan)
        base = resolve_one(sim, 4, "nyc", 90, 0, state).shares
        primary = base[0][0]
        state.prepend(0, primary, times=4)
        state.set_link_down(primary)
        shares = resolve_one(sim, 4, "nyc", 90, 0, state).shares
        assert shares
        assert primary not in {l for l, _f in shares}

    def test_partial_compliance_partial_effect(self):
        graph, wan = build_world()
        sim = IngressSimulator(graph, wan,
                               SimulatorParams(te_compliance=0.5), seed=1)
        clean = AdvertisementState(wan)
        moved = kept = 0
        for prefix in range(200):
            base = resolve_one(sim, 4, "nyc", prefix, 0, clean).shares
            primary = base[0][0]
            te_state = AdvertisementState(wan)
            te_state.prepend(0, primary, times=4)
            after = resolve_one(sim, 4, "nyc", prefix, 0, te_state).shares
            if after[0][0] == primary:
                kept += 1
            else:
                moved += 1
        # some flows honour the hint, some ignore it
        assert moved > 20
        assert kept > 20
