"""Differential property test: the one-lexsort table build vs. the per-row
oracle.

``compute_routing_table`` decides every row's ranked next-hops in one
``np.lexsort`` over the provider edges; the per-row build it replaced
(``tests/bgp/propagation_oracle.py``: a plain-Python BFS and one sort
per row) is the reference.  Over random graphs, seeded sets and
withdraw / re-announce sequences, the two must agree column for column
and on every ``get``.  The bias is the scenario's own on some examples;
on others it is all zero, so that ranks tie and the provider ASN decides,
or drawn from {0, ``SPRAY_TOLERANCE``}, so that a rank lands exactly on
the best rank plus the tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import SPRAY_TOLERANCE, compute_routing_table, default_bias
from repro.topology import MetroCatalog, TopologyParams, generate_as_graph
from tests.bgp.propagation_oracle import oracle_table, scalar_bias


def _small_graph(seed: int):
    params = TopologyParams(n_tier1=3, n_transit=8, n_access=20,
                            n_cdn=3, n_stub=40)
    return generate_as_graph(MetroCatalog(), params, seed=seed)


def _edges(graph):
    """(AS, provider) of every provider edge, in the bias column's order."""
    topo = graph.dense()
    owners = np.repeat(topo.asns, np.diff(topo.prov_indptr))
    return list(zip(owners.tolist(),
                    topo.asns[topo.prov_indices].tolist()))


@st.composite
def _world_and_churn(draw):
    """A graph, a bias (column and oracle function), a peer set and a
    withdraw / re-announce sequence."""
    graph_seed = draw(st.integers(min_value=0, max_value=7))
    graph = _small_graph(graph_seed)
    edges = _edges(graph)
    kind = draw(st.sampled_from(["default", "zero", "tolerance"]))
    if kind == "default":
        column = default_bias(graph, graph_seed)
        function = scalar_bias(graph, graph_seed)
    else:
        values = [0.0] * len(edges) if kind == "zero" else draw(st.lists(
            st.sampled_from([0.0, SPRAY_TOLERANCE]),
            min_size=len(edges), max_size=len(edges)))
        column = np.array(values, dtype=np.float64)
        by_edge = dict(zip(edges, values))

        def function(asn, provider):
            return by_edge[asn, provider]

    asns = sorted(graph.asns)
    peers = draw(st.sets(st.sampled_from(asns), min_size=3, max_size=12))
    # each step toggles a subset of peers out of / back into the seed set
    steps = draw(st.lists(
        st.sets(st.sampled_from(sorted(peers)), min_size=1, max_size=4),
        min_size=1, max_size=6))
    return graph, column, function, frozenset(peers), steps


def _assert_same(graph, seeded, column, function):
    table = compute_routing_table(graph, seeded, column)
    oracle = oracle_table(graph, seeded, function)
    assert table.columns_equal(oracle)
    assert table.seeded == oracle.seeded == seeded
    for asn in graph.asns:
        assert table.get(asn) == oracle.get(asn)


class TestOneBuildEqualsOracle:
    @given(_world_and_churn())
    @settings(max_examples=80, deadline=None)
    def test_every_seeded_set_matches_the_oracle(self, world):
        graph, column, function, peers, steps = world
        _assert_same(graph, peers, column, function)
        seeded = set(peers)
        for toggled in steps:
            # withdraw peers that are up, re-announce peers that are down
            seeded ^= toggled
            _assert_same(graph, frozenset(seeded), column, function)

    @pytest.mark.parametrize("graph_seed", range(4))
    def test_default_bias_is_the_scalar_bias_per_edge(self, graph_seed):
        graph = _small_graph(graph_seed)
        for seed in (0, graph_seed, 12345):
            column = default_bias(graph, seed)
            function = scalar_bias(graph, seed)
            assert column.dtype == np.float64
            expected = [function(asn, provider)
                        for asn, provider in _edges(graph)]
            assert [v.hex() for v in column.tolist()] == [
                v.hex() for v in expected]
