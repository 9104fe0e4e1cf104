"""Tests for the metadata store joins."""

import pytest

from repro.telemetry import GeoIPDatabase, MetadataStore
from repro.topology import MetroCatalog, TopologyParams, WANParams, generate_as_graph, generate_wan
from repro.traffic import PrefixUniverse


@pytest.fixture(scope="module")
def store():
    metros = MetroCatalog()
    graph = generate_as_graph(metros, TopologyParams(
        n_tier1=3, n_transit=6, n_access=10, n_cdn=2, n_stub=20), seed=6)
    wan = generate_wan(graph, WANParams(n_regions=4, n_dest_prefixes=12),
                       seed=6)
    universe = PrefixUniverse(graph, seed=6)
    geoip = GeoIPDatabase(universe, metros, error_rate=0.0, seed=6)
    return MetadataStore(wan, geoip), wan, universe


class TestMetadataStore:
    def test_destination_features(self, store):
        meta, wan, _u = store
        dest = wan.dest_prefixes[0]
        region, service = meta.destination_features(dest.prefix_id)
        assert region == dest.region
        assert service == dest.service

    def test_source_location_matches_geoip(self, store):
        meta, _wan, universe = store
        prefix = universe.prefix(0)
        assert meta.source_location(prefix.prefix_id) == prefix.metro

    def test_unknown_source_location(self, store):
        meta, _wan, _u = store
        assert meta.source_location(10**9) is None

    def test_id_ranges_hold_every_known_id(self, store):
        meta, wan, universe = store
        dest_ids, src_ids = meta.id_ranges()
        assert {p.prefix_id for p in wan.dest_prefixes} <= set(dest_ids)
        assert {p.prefix_id for p in universe} <= set(src_ids)
        assert meta.source_location(src_ids.stop) is None
        with pytest.raises(KeyError):
            meta.destination_features(dest_ids.stop)
