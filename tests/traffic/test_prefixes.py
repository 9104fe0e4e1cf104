"""Tests for the source /24 prefix universe."""

import pytest

from repro.topology import MetroCatalog, TopologyParams, generate_as_graph
from repro.traffic import DEFAULT_PREFIX_COUNTS, PrefixUniverse


@pytest.fixture(scope="module")
def universe():
    graph = generate_as_graph(MetroCatalog(), TopologyParams(
        n_tier1=3, n_transit=8, n_access=15, n_cdn=3, n_stub=40), seed=9)
    return graph, PrefixUniverse(graph, seed=9)


class TestPrefixUniverse:
    def test_prefix_ids_dense(self, universe):
        _graph, uni = universe
        assert [p.prefix_id for p in uni] == list(range(len(uni)))

    def test_prefix_lookup(self, universe):
        _graph, uni = universe
        p = uni.prefix(5)
        assert p.prefix_id == 5

    def test_counts_within_role_bounds(self, universe):
        graph, uni = universe
        for asn in uni.asns():
            role = graph.node(asn).role
            lo, hi = DEFAULT_PREFIX_COUNTS[role]
            assert lo <= len(uni.of_as(asn)) <= hi

    def test_metros_within_footprint(self, universe):
        graph, uni = universe
        for p in uni:
            assert p.metro in graph.node(p.asn).footprint

    def test_one_location_per_prefix(self, universe):
        """The paper's invariant behind APL == AP: each /24 has exactly
        one source location."""
        _graph, uni = universe
        seen = {}
        for p in uni:
            assert seen.setdefault(p.prefix_id, p.metro) == p.metro

    def test_geographic_concentration(self, universe):
        """Zipf placement: an AS's prefixes concentrate in few metros."""
        graph, uni = universe
        concentrated = 0
        eligible = 0
        for asn in uni.asns():
            node = graph.node(asn)
            prefixes = uni.of_as(asn)
            if len(node.footprint) < 3 or len(prefixes) < 20:
                continue
            eligible += 1
            from collections import Counter
            counts = Counter(p.metro for p in prefixes)
            top = counts.most_common(1)[0][1]
            if top > len(prefixes) / len(node.footprint) * 1.5:
                concentrated += 1
        assert eligible > 0
        assert concentrated / eligible > 0.6

    def test_deterministic(self, universe):
        graph, uni = universe
        uni2 = PrefixUniverse(graph, seed=9)
        assert [(p.asn, p.metro) for p in uni] == [
            (p.asn, p.metro) for p in uni2]

    def test_cidr_rendering(self, universe):
        _graph, uni = universe
        p = uni.prefix(0)
        assert p.cidr.endswith(".0/24")
        parts = p.cidr.split("/")[0].split(".")
        assert len(parts) == 4
