"""Tests for the advertisement/outage state."""

import pytest

from repro.bgp import AdvertisementState
from repro.topology import (
    CloudWAN,
    DestPrefix,
    MetroCatalog,
    PeeringLink,
    Region,
)


@pytest.fixture()
def wan():
    metros = MetroCatalog()
    links = [PeeringLink(i, 100 + i % 2, "sea", "sea-er1", 100.0)
             for i in range(4)]
    regions = [Region("sea-region", "sea")]
    dests = [DestPrefix(0, "100.64.0.0/24", "sea-region", "web"),
             DestPrefix(1, "100.64.1.0/24", "sea-region", "storage")]
    return CloudWAN(8075, links, regions, dests, metros)


class TestWithdrawals:
    def test_default_all_available(self, wan):
        state = AdvertisementState(wan)
        for link in wan.link_ids:
            assert state.is_available(0, link)

    def test_withdraw_and_reannounce(self, wan):
        state = AdvertisementState(wan)
        state.withdraw(0, 1)
        assert not state.is_available(0, 1)
        assert state.is_available(1, 1)  # other prefix untouched
        state.announce(0, 1)
        assert state.is_available(0, 1)

    def test_withdrawn_links(self, wan):
        state = AdvertisementState(wan)
        state.withdraw(0, 1)
        state.withdraw(0, 2)
        assert state.withdrawn_links(0) == frozenset({1, 2})
        assert state.withdrawn_links(1) == frozenset()

    def test_unknown_ids_rejected(self, wan):
        state = AdvertisementState(wan)
        with pytest.raises(KeyError):
            state.withdraw(0, 99)
        with pytest.raises(KeyError):
            state.withdraw(42, 0)
        with pytest.raises(KeyError):
            state.set_link_down(99)

    def test_reannounce_idempotent(self, wan):
        state = AdvertisementState(wan)
        state.announce(0, 1)  # never withdrawn: no-op, no error
        assert state.is_available(0, 1)


class TestOutages:
    def test_outage_affects_all_prefixes(self, wan):
        state = AdvertisementState(wan)
        state.set_link_down(2)
        assert not state.is_available(0, 2)
        assert not state.is_available(1, 2)
        state.set_link_up(2)
        assert state.is_available(0, 2)

    def test_removal_key_combines(self, wan):
        state = AdvertisementState(wan)
        state.set_link_down(3)
        state.withdraw(0, 1)
        assert state.removal_key(0) == frozenset({1, 3})
        assert state.removal_key(1) == frozenset({3})

    def test_removal_key_cache_invalidation(self, wan):
        state = AdvertisementState(wan)
        key0 = state.removal_key(0)
        assert key0 == frozenset()
        state.set_link_down(1)
        assert state.removal_key(0) == frozenset({1})

    def test_clear(self, wan):
        state = AdvertisementState(wan)
        state.set_link_down(1)
        state.withdraw(0, 2)
        state.clear()
        assert state.removal_key(0) == frozenset()

    def test_version_monotonic(self, wan):
        state = AdvertisementState(wan)
        v0 = state.version
        state.set_link_down(1)
        state.withdraw(0, 2)
        assert state.version > v0

    def test_noop_mutations_keep_version(self, wan):
        """A mutation that changes nothing must not flush the
        version-keyed caches above the state."""
        state = AdvertisementState(wan)
        state.set_link_down(1)
        state.withdraw(0, 2)
        state.prepend(0, 3, times=2)
        version = state.version
        key = state.removal_key(0)
        state.set_link_down(1)        # already down
        state.set_link_up(0)          # already up
        state.withdraw(0, 2)          # already withdrawn
        state.announce(0, 3)          # never withdrawn
        state.announce(1, 2)          # prefix with no withdrawals
        state.prepend(0, 3, times=2)  # same count
        state.clear_prepend(0, 2)     # no prepend there
        state.clear_prepend(1, 3)     # prefix with no prepends
        assert state.version == version
        assert state.removal_key(0) is key
        state.prepend(0, 3, times=4)  # a new count is a change
        assert state.version == version + 1
        state.clear()
        version = state.version
        state.clear()                 # already clear
        assert state.version == version
