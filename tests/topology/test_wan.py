"""Tests for the cloud WAN model and its generator."""

import pytest

from repro.topology import (
    CloudWAN,
    DestPrefix,
    MetroCatalog,
    PeeringLink,
    Region,
    TopologyParams,
    WANParams,
    generate_as_graph,
    generate_wan,
)


@pytest.fixture(scope="module")
def world():
    metros = MetroCatalog()
    graph = generate_as_graph(metros, TopologyParams(
        n_tier1=4, n_transit=12, n_access=30, n_cdn=4, n_stub=60), seed=5)
    wan = generate_wan(graph, WANParams(), seed=5)
    return graph, wan


class TestCloudWAN:
    def _tiny(self):
        metros = MetroCatalog()
        links = [
            PeeringLink(0, 100, "sea", "sea-er1", 100.0),
            PeeringLink(1, 100, "lon", "lon-er1", 40.0),
            PeeringLink(2, 200, "sea", "sea-er1", 10.0, kind="ixp"),
        ]
        regions = [Region("sea-region", "sea")]
        dests = [DestPrefix(0, "100.64.0.0/24", "sea-region", "storage")]
        return CloudWAN(8075, links, regions, dests, metros)

    def test_lookups(self):
        wan = self._tiny()
        assert wan.link(0).metro == "sea"
        assert wan.has_link(2)
        assert not wan.has_link(99)
        assert wan.links_of_peer(100) == (wan.link(0), wan.link(1))
        assert wan.peer_asns == (100, 200)
        assert wan.region("sea-region").metro == "sea"
        assert wan.dest_prefix(0).service == "storage"

    def test_duplicate_link_id_rejected(self):
        metros = MetroCatalog()
        links = [PeeringLink(0, 100, "sea", "r", 10.0)] * 2
        with pytest.raises(ValueError):
            CloudWAN(1, links, [], [], metros)

    def test_empty_links_rejected(self):
        with pytest.raises(ValueError):
            CloudWAN(1, [], [], [], MetroCatalog())

    def test_link_name_contains_identity(self):
        wan = self._tiny()
        name = wan.link(0).name
        assert "sea-er1" in name and "AS100" in name

    def test_services_sorted_unique(self):
        wan = self._tiny()
        assert wan.services() == ("storage",)

    def test_summary_counts(self):
        wan = self._tiny()
        s = wan.summary()
        assert s == {"links": 3, "peers": 2, "metros": 2,
                     "regions": 1, "dest_prefixes": 1}


class TestGeneratedWAN:
    def test_deterministic(self, world):
        graph, wan = world
        wan2 = generate_wan(graph, WANParams(), seed=5)
        assert [l.name for l in wan.links] == [l.name for l in wan2.links]

    def test_link_ids_dense_from_zero(self, world):
        _graph, wan = world
        assert sorted(l.link_id for l in wan.links) == list(
            range(len(wan.links)))

    def test_all_tier1_and_cdn_peer(self, world):
        graph, wan = world
        peers = set(wan.peer_asns)
        for node in graph.nodes():
            if node.role.value in ("tier1", "cdn"):
                assert node.asn in peers

    def test_peering_metros_within_peer_footprint(self, world):
        graph, wan = world
        for link in wan.links:
            assert link.metro in graph.node(link.peer_asn).footprint

    def test_big_peers_have_multiple_links(self, world):
        graph, wan = world
        tier1 = next(n for n in graph.nodes() if n.role.value == "tier1")
        assert len(wan.links_of_peer(tier1.asn)) >= 4

    def test_parallel_links_same_metro_exist(self, world):
        # the §2 incident needs parallel sessions in one metro (I1, I2)
        _graph, wan = world
        seen = set()
        parallel = False
        for link in wan.links:
            key = (link.peer_asn, link.metro)
            if key in seen:
                parallel = True
                break
            seen.add(key)
        assert parallel

    def test_dest_prefixes_cover_all_regions(self, world):
        _graph, wan = world
        regions_used = {p.region for p in wan.dest_prefixes}
        assert regions_used == {r.name for r in wan.regions}

    def test_capacities_positive(self, world):
        _graph, wan = world
        assert all(l.capacity_gbps > 0 for l in wan.links)

    def test_region_metros_are_wan_metros(self, world):
        _graph, wan = world
        metro_names = set(wan.metros.names)
        for region in wan.regions:
            assert region.metro in metro_names
