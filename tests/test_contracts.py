"""Cross-cutting behavioural contracts pinned down explicitly."""

import pytest

from repro.bgp import AdvertisementState
from repro.core import FEATURES_AL, HistoricalModel
from repro.experiments import paper
from repro.experiments.report import _accuracy_section
from repro.experiments.runner import AccuracyBlock
from repro.pipeline import FlowContext, UNKNOWN_LOCATION
from repro.topology import (
    MetroCatalog,
    TopologyParams,
    WANParams,
    generate_as_graph,
    generate_wan,
)
from tests.core.builders import from_rows


class TestUnknownLocationSemantics:
    def test_unknown_location_is_its_own_category(self):
        """Flows without a Geo-IP hit still train and predict at AL
        grain: UNKNOWN_LOCATION acts as one more location value, never
        as a wildcard."""
        known = FlowContext(1, 10, 3, 0, 0)
        unknown = FlowContext(1, 11, UNKNOWN_LOCATION, 0, 0)
        model = from_rows(HistoricalModel, FEATURES_AL, [
            (known, 5, 100.0), (unknown, 7, 100.0)])
        assert model.predict(known, 1)[0].link_id == 5
        assert model.predict(unknown, 1)[0].link_id == 7
        # a third location matches neither bucket
        elsewhere = FlowContext(1, 12, 9, 0, 0)
        assert model.predict(elsewhere, 1) == []


class TestRoutingTableSharing:
    def test_non_deseeding_removals_share_tables(self, small_scenario):
        """Outages that leave every peer with >= 1 link reuse the
        full-availability routing table object (the performance contract
        behind week-long simulations)."""
        sim = small_scenario.simulator
        wan = small_scenario.wan
        multi_link_peer = next(a for a in wan.peer_asns
                               if len(wan.links_of_peer(a)) >= 2)
        link = wan.links_of_peer(multi_link_peer)[0].link_id
        base = sim.routing_table(frozenset())
        removed = sim.routing_table(frozenset({link}))
        assert removed is base

    def test_deseeding_removal_gets_new_table(self, small_scenario):
        sim = small_scenario.simulator
        wan = small_scenario.wan
        single = next((a for a in wan.peer_asns
                       if len(wan.links_of_peer(a)) == 1), None)
        if single is None:
            pytest.skip("no single-link peer in this world")
        link = wan.links_of_peer(single)[0].link_id
        base = sim.routing_table(frozenset())
        removed = sim.routing_table(frozenset({link}))
        assert removed is not base
        assert single not in removed.seeded


class TestWanGenerationEdges:
    def test_tier1_only_peering(self):
        metros = MetroCatalog()
        graph = generate_as_graph(metros, TopologyParams(
            n_tier1=3, n_transit=5, n_access=5, n_cdn=1, n_stub=10), seed=2)
        params = WANParams(peer_prob={"tier1": 1.0, "transit": 0.0,
                                      "cdn": 0.0, "access": 0.0,
                                      "stub": 0.0})
        wan = generate_wan(graph, params, seed=2)
        roles = {graph.node(a).role.value for a in wan.peer_asns}
        assert roles == {"tier1"}

    def test_state_over_custom_wan(self):
        metros = MetroCatalog()
        graph = generate_as_graph(metros, TopologyParams(
            n_tier1=3, n_transit=5, n_access=5, n_cdn=1, n_stub=10), seed=2)
        wan = generate_wan(graph, WANParams(n_dest_prefixes=4), seed=2)
        state = AdvertisementState(wan)
        state.set_link_down(wan.links[0].link_id)
        assert not state.is_available(0, wan.links[0].link_id)


class TestReportEdges:
    def test_missing_reference_model_renders_dashes(self):
        block = AccuracyBlock(rows={"MysteryModel": {1: 0.5, 2: 0.6,
                                                     3: 0.7},
                                    "Hist_AP": {1: 0.8, 2: 0.9, 3: 0.95}})
        lines = _accuracy_section("t", block, paper.PAPER_TABLE4)
        mystery = next(l for l in lines if "MysteryModel" in l)
        assert "—" in mystery
        known = next(l for l in lines if "Hist_AP" in l)
        assert "—" not in known
