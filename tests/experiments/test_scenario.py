"""Tests for scenario assembly and streaming."""

import numpy as np
import pytest

from repro.bgp import AdvertisementState
from repro.experiments import Scenario, ScenarioParams


class TestAssembly:
    def test_components_consistent(self, small_scenario):
        sc = small_scenario
        assert sc.wan.metros is sc.metros
        assert len(sc.flow_contexts) == len(sc.traffic)
        # every flow's context matches its spec through the encoders
        for flow, context in zip(sc.traffic.flows[:50], sc.flow_contexts[:50]):
            assert context.src_asn == flow.src_asn
            assert context.src_prefix == flow.src_prefix_id
            region = sc.encoders.region.decode(context.dest_region)
            assert region == flow.dest_region

    def test_deterministic_build(self):
        a = Scenario(ScenarioParams.small(seed=5, horizon_days=7))
        b = Scenario(ScenarioParams.small(seed=5, horizon_days=7))
        assert a.wan.summary() == b.wan.summary()
        assert a.outage_schedule == b.outage_schedule
        assert [f.base_rate_mbps for f in a.traffic.flows] == [
            f.base_rate_mbps for f in b.traffic.flows]

    def test_horizon_propagates_to_traffic(self, small_scenario):
        assert (small_scenario.params.traffic.horizon_days
                == small_scenario.params.horizon_days)


class TestStreaming:
    def test_columns_aligned(self, small_scenario):
        cols = next(iter(small_scenario.stream(0, 1)))
        n = len(cols.flow_rows)
        assert len(cols.link_ids) == n
        assert len(cols.true_bytes) == n
        assert len(cols.sampled_bytes) == n

    def test_stream_deterministic(self, small_scenario):
        a = [c.sampled_bytes.sum() for c in small_scenario.stream(0, 6)]
        b = [c.sampled_bytes.sum() for c in small_scenario.stream(0, 6)]
        assert a == b

    def test_window_bounds_validated(self, small_scenario):
        with pytest.raises(ValueError):
            list(small_scenario.stream(0, small_scenario.horizon_hours + 1))
        with pytest.raises(ValueError):
            list(small_scenario.stream(-1, 1))

    def test_outage_links_carry_nothing(self, small_scenario):
        sc = small_scenario
        outage = sc.outage_schedule[0]
        hour = outage.start_hour
        for cols in sc.stream(hour, hour + 1):
            on_link = cols.true_bytes[cols.link_ids == outage.link_id]
            assert on_link.sum() == 0.0

    def test_state_at_matches_schedule(self, small_scenario):
        sc = small_scenario
        outage = sc.outage_schedule[0]
        state = sc.state_at(outage.start_hour)
        assert outage.link_id in state.link_outages
        state_after = sc.state_at(outage.end_hour)
        active_after = sc.scheduled_down_at(outage.end_hour)
        assert (outage.link_id in state_after.link_outages) == (
            outage.link_id in active_after)

    def test_caller_state_withdrawal_respected(self, small_scenario):
        sc = small_scenario
        base = next(iter(sc.stream(0, 1)))
        # find a busy link and withdraw its top destination prefix there
        link_totals = np.bincount(base.link_ids, weights=base.true_bytes)
        hot_link = int(np.argmax(link_totals))
        state = AdvertisementState(sc.wan)
        for prefix in sc.wan.dest_prefixes:
            state.withdraw(prefix.prefix_id, hot_link)
        cols = next(iter(sc.stream(0, 1, state=state)))
        assert cols.true_bytes[cols.link_ids == hot_link].sum() == 0.0


class TestRecordViews:
    def test_ipfix_records_roundtrip(self, small_scenario):
        sc = small_scenario
        cols = next(iter(sc.stream(0, 1)))
        records = sc.ipfix_records_for(cols)
        assert sum(r.bytes for r in records) == pytest.approx(
            cols.sampled_bytes.sum())
        for record in records[:20]:
            assert record.hour == 0
            assert sc.wan.has_link(record.link_id)

    def test_agg_records_merge_contexts(self, small_scenario):
        sc = small_scenario
        cols = next(iter(sc.stream(0, 1)))
        aggs = next(iter(sc.aggregated_hours(0, 1))).to_records()
        keys = [(a.context, a.link_id) for a in aggs]
        assert len(keys) == len(set(keys))
        assert sum(a.bytes for a in aggs) == pytest.approx(
            cols.sampled_bytes.sum())

    def test_traffic_entries_view(self, small_scenario):
        sc = small_scenario
        cols = next(iter(sc.stream(0, 1)))
        entries = sc.traffic_entries_for(cols)
        assert sum(e.bytes for e in entries) == pytest.approx(
            cols.sampled_bytes.sum())

    def test_risk_entries_view(self, small_scenario):
        sc = small_scenario
        cols = next(iter(sc.stream(0, 1)))
        entries = sc.risk_entries_for(cols)
        assert all(b > 0 for _l, _c, b in entries)

    @pytest.mark.parametrize("use_sampled", [True, False])
    def test_views_equal_the_row_by_row_loops(self, small_scenario,
                                              use_sampled):
        """The masked, ``tolist`` views are the old element-by-element
        loops: same entries, same order, same python types."""
        from repro.cms.mitigation import TrafficEntry
        from repro.telemetry.ipfix import IpfixRecord

        sc = small_scenario
        cols = next(iter(sc.stream(30, 31)))
        values = cols.sampled_bytes if use_sampled else cols.true_bytes
        assert (values <= 0.0).any() or not use_sampled
        flows, contexts = sc.traffic.flows, sc.flow_contexts
        ipfix, entries, risk = [], [], []
        for row, link_id, bytes_ in zip(cols.flow_rows, cols.link_ids, values):
            if bytes_ <= 0.0:
                continue
            flow = flows[row]
            ipfix.append(IpfixRecord(cols.hour, int(link_id),
                                     flow.src_prefix_id, flow.src_asn,
                                     flow.dest_prefix_id, float(bytes_)))
            entries.append(TrafficEntry(
                link_id=int(link_id), dest_prefix_id=flow.dest_prefix_id,
                context=contexts[row], bytes=float(bytes_)))
            risk.append((int(link_id), contexts[row], float(bytes_)))

        def typed(records):
            return [[(type(v), v) for v in (r if isinstance(r, tuple)
                                            else vars(r).values())]
                    for r in records]

        got = (sc.ipfix_records_for(cols, use_sampled),
               sc.traffic_entries_for(cols, use_sampled),
               sc.risk_entries_for(cols, use_sampled))
        for mine, reference in zip(got, (ipfix, entries, risk)):
            assert reference and typed(mine) == typed(reference)


class TestExpansionBounds:
    def test_caches_stay_bounded_over_a_week_of_churn(self):
        """A week of scheduled outages with a probe per hour: the
        expansion LRU and the simulator's share and link-share memos
        never outgrow their bounds, and evicted contents come back."""
        from dataclasses import replace

        from repro.bgp import SimulatorParams
        from repro.experiments.scenario import _EXPANSION_SLOTS

        bound = 1500
        params = ScenarioParams.small(seed=9, horizon_days=7)
        sc = Scenario(replace(params, simulator=SimulatorParams(
            share_cache_size=bound)))
        state = sc.state_at(0)
        contents = set()
        for hour in range(sc.horizon_hours):
            sc.apply_outage_transitions(state, hour)
            base = next(iter(sc.stream(hour, hour + 1, state,
                                       apply_outages=False)))
            probe = sc.wan.link_ids[hour % len(sc.wan.link_ids)]
            was_up = probe not in state.link_outages
            state.set_link_down(probe)
            down = next(iter(sc.stream(hour, hour + 1, state,
                                       apply_outages=False)))
            assert not (down.link_ids == probe).any()
            if was_up:
                state.set_link_up(probe)
            again = next(iter(sc.stream(hour, hour + 1, state,
                                        apply_outages=False)))
            assert again.flow_rows is base.flow_rows  # a content hit
            contents.add(sc._latest.content)
            assert len(sc._expansions) <= _EXPANSION_SLOTS
        stats = sc.simulator.cache_stats()
        assert len(contents) > _EXPANSION_SLOTS
        assert stats["share_entries"] <= bound
        assert stats["link_share_entries"] <= bound
        assert stats["share_evictions"] > 0
