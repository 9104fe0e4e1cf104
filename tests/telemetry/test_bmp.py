"""Tests for the BMP feed and AS-distance inference."""

import pytest

from repro.telemetry import BmpFeed, Route
from repro.topology import (
    ASGraph,
    ASNode,
    ASRole,
    CloudWAN,
    DestPrefix,
    MetroCatalog,
    PeeringLink,
    Region,
    Relationship,
)
from repro.traffic import PrefixUniverse


@pytest.fixture()
def world():
    metros = MetroCatalog()
    g = ASGraph(metros)
    g.add_as(ASNode(1, ASRole.TIER1, ("sea", "lon")))
    g.add_as(ASNode(2, ASRole.TRANSIT, ("sea",)))
    g.add_as(ASNode(3, ASRole.STUB, ("sea",)))
    g.add_as(ASNode(4, ASRole.STUB, ("lon",)))  # isolated: no providers
    g.add_link(2, 1, Relationship.PROVIDER)
    g.add_link(3, 2, Relationship.PROVIDER)
    links = [
        PeeringLink(0, 1, "sea", "sea-er1", 100.0),
        PeeringLink(1, 1, "lon", "lon-er1", 100.0),
        PeeringLink(2, 2, "sea", "sea-er2", 100.0),
    ]
    wan = CloudWAN(8075, links, [Region("sea-region", "sea")],
                   [DestPrefix(0, "100.64.0.0/24", "sea-region", "web")],
                   metros)
    return g, wan


class TestRoute:
    def test_frozen(self):
        route = Route("10.0.0.0/24", (7,), "r1")
        with pytest.raises(AttributeError):
            route.next_hop = "r2"


class TestAdvertisementPaths:
    def test_direct_peer_path(self, world):
        g, wan = world
        feed = BmpFeed(g, wan)
        assert feed.advertisement_path(1) == (1,)
        assert feed.advertisement_path(2) == (2,)

    def test_chain_path(self, world):
        g, wan = world
        feed = BmpFeed(g, wan)
        path = feed.advertisement_path(3)
        assert path[-1] == 3          # origin last
        assert path[0] in (1, 2)      # tops at a direct peer
        assert len(path) == 2         # via transit 2 (shortest)

    def test_unreachable_origin(self, world):
        g, wan = world
        feed = BmpFeed(g, wan)
        assert feed.advertisement_path(4) is None
        assert feed.as_distance(4) is None

    def test_unknown_asn(self, world):
        g, wan = world
        feed = BmpFeed(g, wan)
        assert feed.advertisement_path(999) is None

    def test_as_distance(self, world):
        g, wan = world
        feed = BmpFeed(g, wan)
        assert feed.as_distance(1) == 1
        assert feed.as_distance(3) == 2


class TestMessages:
    def test_messages_cover_reachable_prefixes(self, world):
        g, wan = world
        universe = PrefixUniverse(g, seed=1)
        feed = BmpFeed(g, wan)
        messages = feed.messages_for(universe)
        reachable = [p for p in universe
                     if feed.advertisement_path(p.asn) is not None]
        # each reachable prefix produces one message per link of its peer
        origins = {m.route.prefix for m in messages}
        assert origins == {p.cidr for p in reachable}

    def test_message_paths_end_at_origin(self, world):
        g, wan = world
        universe = PrefixUniverse(g, seed=1)
        feed = BmpFeed(g, wan)
        for message in feed.messages_for(universe)[:50]:
            assert message.peer_asn == message.route.as_path[0]
            assert message.link_id in wan.link_ids
