"""Tests for valley-free route propagation to the WAN."""

import numpy as np
import pytest

from repro.bgp import compute_routing_table, default_bias
from repro.topology import ASGraph, ASNode, ASRole, MetroCatalog, Relationship


def no_bias(graph):
    """A zero policy bias on every provider edge."""
    return np.zeros(graph.dense().prov_indices.size, dtype=np.float64)


@pytest.fixture()
def chain_graph():
    """T1 (tier1) <- T (transit) <- A (access) <- S (stub); T1 and T peer
    directly with the WAN in different tests via the seeded set."""
    metros = MetroCatalog()
    g = ASGraph(metros)
    g.add_as(ASNode(1, ASRole.TIER1, ("sea", "lon")))
    g.add_as(ASNode(2, ASRole.TRANSIT, ("sea",)))
    g.add_as(ASNode(3, ASRole.ACCESS, ("sea",)))
    g.add_as(ASNode(4, ASRole.STUB, ("sea",)))
    g.add_link(2, 1, Relationship.PROVIDER)
    g.add_link(3, 2, Relationship.PROVIDER)
    g.add_link(4, 3, Relationship.PROVIDER)
    return g


class TestRoutePropagation:
    def test_seeded_as_is_direct(self, chain_graph):
        table = compute_routing_table(chain_graph, frozenset({1}),
                                      no_bias(chain_graph))
        assert table.get(1).direct
        assert table.get(1).dist == 1

    def test_routes_flow_down_customer_cone(self, chain_graph):
        table = compute_routing_table(chain_graph, frozenset({1}),
                                      no_bias(chain_graph))
        assert table.get(2).dist == 2
        assert table.get(3).dist == 3
        assert table.get(4).dist == 4
        assert table.get(4).nexthops == (3,)

    def test_routes_do_not_flow_up(self, chain_graph):
        # only the stub's access provider peers: nothing above it learns
        table = compute_routing_table(chain_graph, frozenset({3}),
                                      no_bias(chain_graph))
        assert table.get(4) is not None        # customer of 3: learns
        assert table.get(2) is None            # provider of 3: valley-free
        assert table.get(1) is None

    def test_peer_routes_not_exported_to_peers(self):
        metros = MetroCatalog()
        g = ASGraph(metros)
        g.add_as(ASNode(1, ASRole.TRANSIT, ("sea",)))
        g.add_as(ASNode(2, ASRole.TRANSIT, ("sea",)))
        g.add_link(1, 2, Relationship.PEER)
        table = compute_routing_table(g, frozenset({1}), no_bias(g))
        # AS 2 peers with AS 1, but AS 1's (peer-learned) WAN route is not
        # exported to peers: AS 2 has no route
        assert table.get(2) is None

    def test_multiple_seeds_shortest_wins(self, chain_graph):
        table = compute_routing_table(chain_graph, frozenset({1, 3}),
                                      no_bias(chain_graph))
        # stub reaches via its access provider (direct), dist 2
        assert table.get(4).dist == 2
        # transit reaches via tier-1, not via its customer's route
        assert table.get(2).dist == 2
        assert table.get(2).nexthops == (1,)

    def test_empty_seed_empty_table(self, chain_graph):
        table = compute_routing_table(chain_graph, frozenset(),
                                      no_bias(chain_graph))
        assert len(table) == 0

    def test_seed_not_in_graph_ignored(self, chain_graph):
        table = compute_routing_table(chain_graph, frozenset({99}),
                                      no_bias(chain_graph))
        assert len(table) == 0

    def test_nexthops_ranked_by_bias(self):
        metros = MetroCatalog()
        g = ASGraph(metros)
        g.add_as(ASNode(1, ASRole.TRANSIT, ("sea",)))
        g.add_as(ASNode(2, ASRole.TRANSIT, ("sea",)))
        g.add_as(ASNode(3, ASRole.STUB, ("sea",)))
        g.add_link(3, 1, Relationship.PROVIDER)
        g.add_link(3, 2, Relationship.PROVIDER)

        # AS 3's provider edges, in insertion order: 1, then 2
        topo = g.dense()
        assert topo.asns[topo.providers_of(topo.index[3])].tolist() == [1, 2]
        bias = np.array([0.2, 0.0])

        table = compute_routing_table(g, frozenset({1, 2}), bias)
        # both providers at dist 1, but provider 2 has lower bias
        assert table.get(3).nexthops[0] == 2

    def test_spray_tolerance_excludes_far_ranked(self):
        metros = MetroCatalog()
        g = ASGraph(metros)
        g.add_as(ASNode(1, ASRole.TIER1, ("sea",)))
        g.add_as(ASNode(2, ASRole.TRANSIT, ("sea",)))
        g.add_as(ASNode(3, ASRole.STUB, ("sea",)))
        g.add_link(2, 1, Relationship.PROVIDER)
        g.add_link(3, 1, Relationship.PROVIDER)
        g.add_link(3, 2, Relationship.PROVIDER)
        table = compute_routing_table(g, frozenset({1}), no_bias(g))
        # provider 1 at dist 1, provider 2 at dist 2: only 1 sprayable
        assert table.get(3).nexthops == (1,)

    def test_reachable_and_distance_api(self, chain_graph):
        table = compute_routing_table(chain_graph, frozenset({1}),
                                      no_bias(chain_graph))
        assert set(table.reachable_asns()) == {1, 2, 3, 4}
        assert table.distance(4) == 4
        assert table.distance(99) is None
        assert 4 in table
        assert 99 not in table


class TestNexthopMatrix:
    def test_cached_matrix_is_read_only(self, chain_graph):
        """Tables hand their columns to every later comparison and to
        every walk that stacks them: writing into one would corrupt each
        later answer."""
        table = compute_routing_table(chain_graph, frozenset({1}),
                                      no_bias(chain_graph))
        other = compute_routing_table(chain_graph, frozenset({2}),
                                      no_bias(chain_graph))
        assert table.changed_asns(other) == {1, 2, 3, 4}
        matrix = table.nexthops
        columns = (table.dist, table.direct, table.nexthops)
        kept = [column.tobytes() for column in columns]
        for column in columns:
            with pytest.raises(ValueError):
                column[0] = 7
        again = compute_routing_table(chain_graph, frozenset({2}),
                                      no_bias(chain_graph))
        assert again.columns_equal(other)
        assert matrix is table.nexthops
        assert [column.tobytes() for column in columns] == kept
        assert table.changed_asns(other) == {1, 2, 3, 4}


class TestBiasColumn:
    def test_bias_must_cover_every_provider_edge(self, chain_graph):
        bias = no_bias(chain_graph)
        for wrong in (bias[:-1], np.zeros(bias.size + 1)):
            with pytest.raises(ValueError, match="provider edges"):
                compute_routing_table(chain_graph, frozenset({1}), wrong)

    def test_a_stale_column_is_refused_after_the_graph_grows(
            self, chain_graph):
        bias = default_bias(chain_graph, 0)
        chain_graph.add_link(4, 2, Relationship.PROVIDER)
        with pytest.raises(ValueError, match="provider edges"):
            compute_routing_table(chain_graph, frozenset({1}), bias)
        table = compute_routing_table(chain_graph, frozenset({1}),
                                      default_bias(chain_graph, 0))
        assert table.get(4).dist == 3
