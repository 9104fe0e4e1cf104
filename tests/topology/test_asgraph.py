"""Tests for the synthetic AS graph and its generator."""

import pytest

from repro.topology import (
    ASGraph,
    ASNode,
    ASRole,
    MetroCatalog,
    Pocket,
    Relationship,
    TopologyParams,
    generate_as_graph,
)


@pytest.fixture(scope="module")
def graph():
    return generate_as_graph(MetroCatalog(), TopologyParams(
        n_tier1=4, n_transit=12, n_access=30, n_cdn=4, n_stub=80), seed=3)


class TestASGraphConstruction:
    def _tiny(self):
        metros = MetroCatalog()
        g = ASGraph(metros)
        g.add_as(ASNode(1, ASRole.TIER1, ("sea", "lon")))
        g.add_as(ASNode(2, ASRole.STUB, ("sea",)))
        return g

    def test_add_and_query(self):
        g = self._tiny()
        g.add_link(2, 1, Relationship.PROVIDER)  # 1 is 2's provider
        assert g.relationship(2, 1) is Relationship.PROVIDER
        assert g.relationship(1, 2) is Relationship.CUSTOMER
        assert g.providers(2) == (1,)
        assert g.customers(1) == (2,)
        assert g.peers(1) == ()

    def test_duplicate_as_rejected(self):
        g = self._tiny()
        with pytest.raises(ValueError):
            g.add_as(ASNode(1, ASRole.STUB, ("sea",)))

    def test_unknown_metro_rejected(self):
        g = self._tiny()
        with pytest.raises(ValueError):
            g.add_as(ASNode(3, ASRole.STUB, ("atlantis",)))

    def test_self_loop_rejected(self):
        g = self._tiny()
        with pytest.raises(ValueError):
            g.add_link(1, 1, Relationship.PEER)

    def test_duplicate_link_rejected(self):
        g = self._tiny()
        g.add_link(1, 2, Relationship.CUSTOMER)
        with pytest.raises(ValueError):
            g.add_link(1, 2, Relationship.PEER)

    def test_link_to_missing_as_rejected(self):
        g = self._tiny()
        with pytest.raises(KeyError):
            g.add_link(1, 99, Relationship.PEER)

    def test_pocket_for(self):
        node = ASNode(5, ASRole.CDN, ("sea", "lon", "tyo"),
                      pockets=(Pocket(frozenset({"tyo"}), (1,)),))
        assert node.pocket_for("tyo") is not None
        assert node.pocket_for("sea") is None


class TestGeneratedGraph:
    def test_deterministic(self):
        metros = MetroCatalog()
        params = TopologyParams(n_tier1=3, n_transit=6, n_access=10,
                                n_cdn=2, n_stub=20)
        g1 = generate_as_graph(metros, params, seed=42)
        g2 = generate_as_graph(metros, params, seed=42)
        assert g1.asns == g2.asns
        for asn in g1.asns:
            assert g1.neighbors(asn) == g2.neighbors(asn)

    def test_counts_by_role(self, graph):
        by_role = {}
        for node in graph.nodes():
            by_role[node.role] = by_role.get(node.role, 0) + 1
        assert by_role[ASRole.TIER1] == 4
        assert by_role[ASRole.TRANSIT] == 12
        assert by_role[ASRole.ACCESS] == 30
        assert by_role[ASRole.CDN] == 4
        assert by_role[ASRole.STUB] == 80

    def test_tier1_full_mesh(self, graph):
        tier1s = [n.asn for n in graph.nodes() if n.role is ASRole.TIER1]
        for i, a in enumerate(tier1s):
            for b in tier1s[i + 1:]:
                assert graph.relationship(a, b) is Relationship.PEER

    def test_tier1_has_no_providers(self, graph):
        for node in graph.nodes():
            if node.role is ASRole.TIER1:
                assert graph.providers(node.asn) == ()

    def test_every_non_tier1_has_a_provider(self, graph):
        for node in graph.nodes():
            if node.role is not ASRole.TIER1:
                assert graph.providers(node.asn), f"AS{node.asn} is orphaned"

    def test_stubs_have_no_customers(self, graph):
        for node in graph.nodes():
            if node.role is ASRole.STUB:
                assert graph.customers(node.asn) == ()

    def test_provider_hierarchy_is_acyclic(self, graph):
        # provider edges strictly climb the tier ordering, so the
        # provider hierarchy is a DAG and route walks terminate
        order = {"stub": 0, "access": 1, "cdn": 1, "transit": 2, "tier1": 3}
        for node in graph.nodes():
            for p in graph.providers(node.asn):
                assert order[graph.node(p).role.value] > order[node.role.value], (
                    f"provider edge AS{node.asn}->AS{p} does not climb tiers")

    def test_pockets_within_footprint(self, graph):
        for node in graph.nodes():
            footprint = set(node.footprint)
            for pocket in node.pockets:
                assert pocket.metros <= footprint
                # pocket providers are adjacent so routes can flow
                for provider in pocket.providers:
                    assert provider in graph.neighbors(node.asn)

    def test_cdns_have_pockets(self, graph):
        cdns = [n for n in graph.nodes() if n.role is ASRole.CDN]
        assert any(n.pockets for n in cdns)

    def test_validate_passes(self, graph):
        graph.validate()

    def test_validate_detects_empty_footprint(self):
        metros = MetroCatalog()
        g = ASGraph(metros)
        g.add_as(ASNode(1, ASRole.STUB, ("sea",)))
        g._nodes[1] = ASNode(1, ASRole.STUB, ())  # simulate corruption
        with pytest.raises(ValueError):
            g.validate()
