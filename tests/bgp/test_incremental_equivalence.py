"""Incremental dirty-set recomputation == full rebuild, bit for bit.

``update_routing_table`` exists so withdrawal churn at 10x graph scale
does not pay a full Gao–Rexford propagation per seed-set delta; its
entire correctness claim is that the repaired table is *indistinguishable*
from ``compute_routing_table`` run from scratch on the new seed set —
same distances, same direct flags, same ranked next-hops, same columnar
bytes.  Hypothesis drives random withdrawal / re-announce sequences over
a randomly generated topology and checks exactly that, including chains
where each table derives from the previous incremental result (so repair
errors would compound if they existed).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import compute_routing_table, update_routing_table
from repro.bgp.propagation import default_bias
from repro.topology import MetroCatalog, TopologyParams, generate_as_graph


def _small_graph(seed: int):
    params = TopologyParams(n_tier1=3, n_transit=8, n_access=20,
                            n_cdn=3, n_stub=40)
    return generate_as_graph(MetroCatalog(), params, seed=seed)


def _tables_identical(left, right) -> bool:
    """Columnar equality plus the per-AS view (``get``'s RouteInfo)."""
    if not left.columns_equal(right):
        return False
    asns = set(left.reachable_asns())
    if asns != set(right.reachable_asns()):
        return False
    return all(left.get(asn) == right.get(asn) for asn in asns)


@st.composite
def _world_and_churn(draw):
    """A graph, its peer set, and a withdraw/re-announce sequence."""
    graph_seed = draw(st.integers(min_value=0, max_value=7))
    graph = _small_graph(graph_seed)
    asns = sorted(graph.asns)
    peers = draw(st.sets(st.sampled_from(asns), min_size=3, max_size=12))
    # each step toggles a subset of peers out of / back into the seed set
    steps = draw(st.lists(
        st.sets(st.sampled_from(sorted(peers)), min_size=1, max_size=4),
        min_size=1, max_size=6))
    return graph_seed, graph, frozenset(peers), steps


class TestIncrementalEquivalence:
    @given(_world_and_churn())
    @settings(max_examples=60, deadline=None)
    def test_single_delta_matches_scratch(self, world):
        graph_seed, graph, peers, steps = world
        bias = default_bias(graph, graph_seed)
        base = compute_routing_table(graph, peers, bias)
        for toggled in steps:
            seeded = peers - toggled
            repaired = update_routing_table(graph, base, seeded, bias)
            scratch = compute_routing_table(graph, seeded, bias)
            assert _tables_identical(repaired, scratch)

    @given(_world_and_churn())
    @settings(max_examples=60, deadline=None)
    def test_chained_deltas_match_scratch(self, world):
        graph_seed, graph, peers, steps = world
        bias = default_bias(graph, graph_seed)
        table = compute_routing_table(graph, peers, bias)
        seeded = set(peers)
        for toggled in steps:
            # withdraw peers that are up, re-announce peers that are down
            for asn in sorted(toggled):
                if asn in seeded:
                    seeded.discard(asn)
                else:
                    seeded.add(asn)
            table = update_routing_table(graph, table, frozenset(seeded),
                                         bias)
            scratch = compute_routing_table(graph, frozenset(seeded), bias)
            assert _tables_identical(table, scratch)

    @given(_world_and_churn())
    @settings(max_examples=30, deadline=None)
    def test_reannounce_restores_base_exactly(self, world):
        graph_seed, graph, peers, steps = world
        bias = default_bias(graph, graph_seed)
        base = compute_routing_table(graph, peers, bias)
        table = base
        for toggled in steps:
            table = update_routing_table(graph, table, peers - toggled, bias)
            table = update_routing_table(graph, table, peers, bias)
        assert _tables_identical(table, base)

    def test_identical_seeds_share_the_table(self):
        graph = _small_graph(0)
        bias = default_bias(graph, 0)
        peers = frozenset(sorted(graph.asns)[:6])
        base = compute_routing_table(graph, peers, bias)
        assert update_routing_table(graph, base, peers, bias) is base

    def test_unreachable_rows_identical(self):
        # a withdrawal that cuts a whole customer cone off must leave the
        # repaired table reporting the same unreachable set as scratch
        graph = _small_graph(1)
        bias = default_bias(graph, 1)
        asns = sorted(graph.asns)
        peers = frozenset(asns[:4])
        base = compute_routing_table(graph, peers, bias)
        for drop in asns[:4]:
            seeded = peers - {drop}
            repaired = update_routing_table(graph, base, seeded, bias)
            scratch = compute_routing_table(graph, seeded, bias)
            assert _tables_identical(repaired, scratch)
            missing = set(base.reachable_asns()) - set(
                repaired.reachable_asns())
            for asn in missing:
                assert repaired.get(asn) is None
                assert repaired.distance(asn) is None

    def test_snapshot_columns_identical_after_repair(self):
        # a repaired table is the scratch table column for column, for
        # the same seeded-neighbor set
        graph = _small_graph(2)
        bias = default_bias(graph, 2)
        asns = sorted(graph.asns)
        peers = frozenset(asns[2:10])
        base = compute_routing_table(graph, peers, bias)
        seeded = peers - {asns[4], asns[7]}
        repaired = update_routing_table(graph, base, seeded, bias)
        scratch = compute_routing_table(graph, seeded, bias)
        assert repaired.columns_equal(scratch)
        assert repaired.seeded == scratch.seeded == seeded
