"""Tests for scenario assembly and streaming."""

import numpy as np
import pytest

from repro.bgp import AdvertisementState, IngressSimulator
from repro.bgp import simulator as bgp_simulator
from repro.experiments import Scenario, ScenarioParams
from repro.experiments import scenario as scenario_module
from repro.telemetry.ipfix import IpfixExporter
from repro.util.cache import ArrayLru
from tests.bgp.resolve_oracle import ResolveOracle, drift_state


def arrays(cols):
    """An hour's four aligned columns, samples drawn."""
    return (cols.flow_rows, cols.link_ids, cols.true_bytes,
            cols.sampled_bytes)


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

    def test_feed_resumed_in_a_fresh_scenario_is_bit_identical(
            self, small_scenario):
        """A new ``Scenario`` fed from hour ``a`` gives the ``AggColumns``
        of hours ``a..b`` of a feed begun at 0, all seven arrays to the
        bit: what ``repro serve run --resume`` relies on in a new
        process (the feed is a pure function of seed and hour; the
        encoders are seeded at construction, not by what was seen)."""
        a, b = 30, 44  # mid-day, across a day boundary and outages
        fresh = Scenario(small_scenario.params)
        resumed = list(fresh.aggregated_hours(a, b))
        whole = list(small_scenario.aggregated_hours(0, b))[a:]
        assert [c.hour for c in resumed] == list(range(a, b))
        for got, want in zip(resumed, whole):
            assert got.hour == want.hour
            assert len(got) == 8
            for i in range(1, 8):
                assert got[i].dtype == want[i].dtype
                assert np.array_equal(got[i], want[i])

    def test_back_to_back_windows_equal_one_window(self):
        """``stream(a, b, state)`` then ``stream(b, c, state)`` leaves the
        caller's state as ``stream(a, c, state)`` does — also when an
        outage ends exactly at ``b`` (it used to stay down for good)."""
        sc = Scenario(ScenarioParams.small(seed=9, horizon_days=7))
        last = sc.horizon_hours
        cuts = sorted({o.end_hour for o in sc.outage_schedule
                       if 0 < o.end_hour < last})
        assert len(cuts) >= 5
        whole = AdvertisementState(sc.wan)
        for _ in sc.stream(0, last, whole):
            pass
        for cut in cuts:
            state = AdvertisementState(sc.wan)
            for _ in sc.stream(0, cut, state):
                pass
            for cols in sc.stream(cut, last, state):
                if cols.hour == cut:
                    assert state.link_outages == sc.scheduled_down_at(cut)
            assert state.link_outages == whole.link_outages, cut
        # for the state of the hour itself, catching up changes nothing
        at = sc.state_at(cuts[0])
        version = at.version
        next(iter(sc.stream(cuts[0], cuts[0] + 1, at)))
        assert at.version == version


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
        sample = sc.traffic_entries_for(cols)
        assert sample.bytes.sum() == pytest.approx(cols.sampled_bytes.sum())
        assert (sample.bytes > 0.0).all()
        n = len(sample.bytes)
        assert n == len(sample.link_ids) == len(sample.flow_rows)
        assert n == len(sample.dest_prefix_ids)
        assert sample.contexts is sc.flow_contexts

    def test_views_equal_the_row_by_row_loops(self, small_scenario):
        """The masked views are the old element-by-element loops: the
        record view the same entries, in the same order, with the same
        python types; the CMS sample the same rows, in the same order, as
        ``int64`` / ``float64`` columns over the flow contexts."""
        from repro.telemetry.ipfix import IpfixRecord

        sc = small_scenario
        cols = next(iter(sc.stream(30, 31)))
        values = cols.sampled_bytes
        assert (values <= 0.0).any()
        flows, contexts = sc.traffic.flows, sc.flow_contexts
        ipfix, entries = [], []
        for row, link_id, bytes_ in zip(cols.flow_rows, cols.link_ids, values):
            if bytes_ <= 0.0:
                continue
            flow = flows[row]
            ipfix.append(IpfixRecord(cols.hour, int(link_id),
                                     flow.src_prefix_id, flow.src_asn,
                                     flow.dest_prefix_id, float(bytes_)))
            entries.append((int(link_id), flow.dest_prefix_id, int(row),
                            float(bytes_)))

        def typed(records):
            return [[(type(v), v) for v in vars(r).values()]
                    for r in records]

        mine = sc.ipfix_records_for(cols)
        assert ipfix and typed(mine) == typed(ipfix)
        sample = sc.traffic_entries_for(cols)
        columns = (sample.link_ids, sample.dest_prefix_ids,
                   sample.flow_rows, sample.bytes)
        for column, dtype, want in zip(
                columns, (np.int64, np.int64, np.int64, np.float64),
                zip(*entries)):
            assert column.dtype == dtype
            assert column.tolist() == list(want)
        assert [b.hex() for b in sample.bytes.tolist()] == [
            b.hex() for *_, b in entries]
        assert sample.contexts is contexts


class TestExpansionBounds:
    def test_caches_stay_bounded_over_a_week_of_churn(self):
        """A week of scheduled outages with a probe per hour: the
        expansion LRU and the simulator's split memo never outgrow their
        bounds, and evicted contents come back."""
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
            contents.update(e.content for e in sc._expansions.values())
            assert len(sc._expansions) <= _EXPANSION_SLOTS
        stats = sc.simulator.cache_stats()
        assert len(contents) > _EXPANSION_SLOTS
        assert stats["share_entries"] <= bound
        assert stats["share_evictions"] > 0


class TestCountedWork:
    """What a missed expansion re-resolves, counted call by call: counts
    repeat exactly where timings do not."""

    HOUR = 30

    @pytest.fixture()
    def calls(self, monkeypatch):
        """The flows ``resolve_shares`` is handed, in order."""
        asked = []
        resolve = IngressSimulator.resolve_shares

        def counting(simulator, *args):
            asked.extend(zip(*(np.asarray(column).tolist()
                               for column in args[:4])))
            return resolve(simulator, *args)

        monkeypatch.setattr(IngressSimulator, "resolve_shares", counting)
        return asked

    def world(self):
        """A scenario that has streamed S, S's columns and state, and S's
        two busiest links."""
        sc = Scenario(ScenarioParams.small(seed=9, horizon_days=7))
        state = sc.state_at(self.HOUR)
        base = self.streamed(sc, state)
        busiest = np.argsort(-np.bincount(base.link_ids,
                                          weights=base.true_bytes))
        return sc, state, base, [int(link) for link in busiest[:2]]

    def streamed(self, sc, state):
        return next(iter(sc.stream(self.HOUR, self.HOUR + 1, state,
                                   apply_outages=False)))

    def probe(self, sc, state, link):
        state.set_link_down(link)
        try:
            return self.streamed(sc, state)
        finally:
            state.set_link_up(link)

    def test_a_probe_costs_the_same_after_another_probe(self, calls):
        sc, state, _base, (first, second) = self.world()
        del calls[:]
        alone = self.probe(sc, state, second)
        after_s = list(calls)
        assert 0 < len(after_s) < len(sc.traffic) / 4

        sc, state, _base, _links = self.world()
        self.probe(sc, state, first)
        del calls[:]
        # the latest expansion is the first probe's; S is the cheaper base
        chained = self.probe(sc, state, second)
        assert calls == after_s
        for mine, theirs in zip(arrays(chained), arrays(alone)):
            assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("withdrawn", [False, True])
    def test_what_is_counted_read_the_change(self, calls, withdrawn):
        """Exactly the flows whose footprint or pools the change reaches
        are resolved again — under a withdrawal, of that prefix only."""
        sc, state, base, (_first, link) = self.world()
        sim, flows = sc.simulator, sc.traffic.flows
        oracle = ResolveOracle(sim)
        on_link = base.flow_rows[base.link_ids == link]
        prefix = flows[int(on_link[0])].dest_prefix_id
        before = state.removal_key(prefix)
        asns, links = sim.touched(before, before | {link})
        assert links == {link}
        expected = []
        for flow in flows:
            if withdrawn and flow.dest_prefix_id != prefix:
                continue
            key = (flow.src_asn, flow.src_metro, flow.src_prefix_id,
                   flow.dest_prefix_id)
            read = oracle._resolve(*key, before, *drift_state(
                sim, flow.src_asn, flow.src_prefix_id, flow.dest_prefix_id,
                self.HOUR // 24))
            if link in read.pools or not asns.isdisjoint(read.footprint):
                expected.append(key)
        del calls[:]
        if withdrawn:
            state.withdraw(prefix, link)
            self.streamed(sc, state)
        else:
            self.probe(sc, state, link)
        assert expected and calls == expected
        if withdrawn:
            assert len(calls) < (on_link.size + len(flows)) / 2

    def test_a_worse_base_changes_the_count_not_the_arrays(self, calls,
                                                           monkeypatch):
        sc, state, _base, (first, second) = self.world()
        self.probe(sc, state, first)
        del calls[:]
        cheapest = self.probe(sc, state, second)
        n_cheapest = len(calls)

        estimate = Scenario._estimate
        monkeypatch.setattr(
            Scenario, "_estimate",
            lambda self, base, changes: -estimate(self, base, changes))
        sc, state, _base, _links = self.world()
        self.probe(sc, state, first)
        del calls[:]
        dearest = self.probe(sc, state, second)
        assert len(calls) > n_cheapest
        for mine, theirs in zip(arrays(dearest), arrays(cheapest)):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)

    def test_one_scan_per_reached_set(self, monkeypatch):
        """Prefixes withdrawn one by one each form their own moved
        group; a probe after them reaches every group alike, and the
        footprint and pool arrays are scanned once per distinct reached
        set, not once per group."""
        sc, state, _base, (_first, link) = self.world()
        others = [l for l in sc.wan.link_ids
                  if l != link and l not in state.link_outages]
        for prefix, other in zip(sc._dest_prefixes[:6], others[::7]):
            state.withdraw(prefix, other)
        self.streamed(sc, state)

        derived = []
        stale_rows = Scenario._stale_rows

        def recorded(scenario, base, changes):
            derived.append((base, changes))
            return stale_rows(scenario, base, changes)

        scanned = []
        marked = scenario_module._marked

        def counted(values, *args):
            scanned.append(values)
            return marked(values, *args)

        monkeypatch.setattr(Scenario, "_stale_rows", recorded)
        monkeypatch.setattr(scenario_module, "_marked", counted)
        self.probe(sc, state, link)
        monkeypatch.undo()

        (base, changes), = derived
        # the prefixes neither content touched move as one more group
        moved = dict(changes.moved)
        if (changes.untouched is not None
                and len(changes.touched) < len(sc._dest_prefixes)):
            moved.setdefault(changes.untouched, [])
        reached = {sc.simulator.touched(*change) for change in moved}
        assert len(moved) >= 6 > len(reached)
        dest = sc._flow_columns[2]
        assert sum(array is dest for array in scanned) == len(reached)
        assert sum(array is base.footprint_codes for array in scanned) == sum(
            bool(asns) for asns, _links in reached)
        assert sum(array is base.pool_links for array in scanned) == sum(
            bool(links) for _asns, links in reached)

    def test_nexthop_matrix_built_once_per_table(self, monkeypatch):
        """Tables never change once built, and neither does the matrix
        ``changed_asns`` compares them by: a repeat ``routing_table``
        returns the cached table, ``changed_asns`` reads each table's own
        columns, and neither builds a matrix or computes a table."""
        sc = Scenario(ScenarioParams.small(seed=9, horizon_days=7))
        sim, wan = sc.simulator, sc.wan
        # each peer losing every link: tables that really differ
        keys = [frozenset()] + [
            frozenset(l.link_id for l in wan.links_of_peer(peer))
            for peer in sorted(wan.peer_asns)[:4]]
        tables = [sim.routing_table(key) for key in keys]
        assert len({id(table) for table in tables}) == len(tables)
        matrices = [table.nexthops for table in tables]
        built = []

        def counting(function):
            def counted(*args, **kwargs):
                built.append(args)
                return function(*args, **kwargs)
            return counted

        monkeypatch.setattr(np, "full", counting(np.full))
        monkeypatch.setattr(
            bgp_simulator, "compute_routing_table",
            counting(bgp_simulator.compute_routing_table))
        for _ in range(3):
            for key, table in zip(keys, tables):
                assert sim.routing_table(key) is table
                for other in tables:
                    table.changed_asns(other)
        monkeypatch.undo()
        assert built == []
        assert all(table.nexthops is matrix
                   for table, matrix in zip(tables, matrices))


class TestCountedProbeWork:
    """What a probe's stream pays for, counted call by call: no IPFIX
    draw that nothing reads, no per-row drift lookup in a derive, one
    routing table built per set of peers that go dark, split look-ups by
    int key, and one comparison of each cached expansion with the
    content asked for."""

    HOUR = 30

    @pytest.fixture()
    def spied(self, monkeypatch):
        """Each spied call's argument, by what was called; ``spy`` adds
        one more."""
        calls = {}

        def spy(owner, name, record):
            real = getattr(owner, name)
            calls[name] = []

            def call(self, *args):
                calls[name].append(record(*args))
                return real(self, *args)
            monkeypatch.setattr(owner, name, call)

        spy(IpfixExporter, "sample_bytes", lambda _bytes, hour: hour)
        spy(IngressSimulator, "drift_days", lambda *flow: flow)
        calls["spy"] = spy
        return calls

    def world(self, spied):
        """A scenario, its state at ``HOUR``, S's columns and S's two
        busiest links; the spies cleared of the build's calls."""
        sc = Scenario(ScenarioParams.small(seed=9, horizon_days=7))
        state = sc.state_at(self.HOUR)
        base = self.streamed(sc, state, self.HOUR)
        busiest = np.argsort(-np.bincount(base.link_ids,
                                          weights=base.true_bytes))
        for made in spied.values():
            if isinstance(made, list):
                del made[:]
        return sc, state, base, [int(link) for link in busiest[:2]]

    @staticmethod
    def streamed(sc, state, hour):
        return next(iter(sc.stream(hour, hour + 1, state,
                                   apply_outages=False)))

    def probe(self, sc, state, link, hour):
        state.set_link_down(link)
        try:
            return self.streamed(sc, state, hour)
        finally:
            state.set_link_up(link)

    def test_an_unread_probe_draws_nothing(self, spied):
        sc, state, base, (first, second) = self.world(spied)
        downs = [self.probe(sc, state, link, self.HOUR)
                 for link in (first, second)]
        assert spied["sample_bytes"] == []
        for down in downs:
            assert down.true_bytes.size
        assert base.sampled_bytes is base.sampled_bytes
        assert spied["sample_bytes"] == [self.HOUR]
        assert np.array_equal(base.sampled_bytes, sc.exporter.sample_bytes(
            base.true_bytes, self.HOUR))

    def test_a_derive_asks_no_drift_days(self, spied):
        spied["spy"](IngressSimulator, "resolve_shares",
                     lambda *columns: len(columns[0]))
        sc, state, _base, links = self.world(spied)
        # a later day: every row whose drift flag flips is resolved again
        for hour in (self.HOUR, self.HOUR + 24, self.HOUR + 72):
            self.streamed(sc, state, hour)
            for link in links:
                self.probe(sc, state, link, hour)
        assert spied["drift_days"] == []
        assert spied["resolve_shares"]

    def test_a_table_is_built_once_per_dark_peer_set(self, spied):
        """Probes on three days, one of them taking a peer's every link
        down: many removal sets, and a table built for each set of peers
        that go dark, once."""
        asked = []
        spied["spy"](IngressSimulator, "routing_table", asked.append)
        sc, state, _base, links = self.world(spied)
        for hour in (self.HOUR, self.HOUR + 24, self.HOUR + 72):
            for link in links:
                self.probe(sc, state, link, hour)
        # a peer loses every link: the tables change
        for other in sc.wan.links_of_peer(sc.wan.link(links[0]).peer_asn):
            state.set_link_down(other.link_id)
        self.streamed(sc, state, self.HOUR)
        sim = sc.simulator
        seeded = {sim.seeded_for(removed) for removed in asked}
        assert 2 <= len(seeded) < len(set(asked))
        assert sim.cache_stats()["table_full_rebuilds"] == len(seeded)

    def test_a_split_hit_builds_no_per_lane_tuple(self, spied):
        """The split memo is asked one int64 array, a key per lane, and a
        repeat of the same rows finds every split."""
        spied["spy"](ArrayLru, "get_many", lambda keys: keys)
        spied["spy"](IngressSimulator, "_draw_splits", lambda todo: todo)
        sc, state, _base, _links = self.world(spied)
        sim = sc.simulator
        columns = (sc._flow_columns[1][:200], sc._src_metros[:200],
                   sc._flow_columns[0][:200], sc._flow_columns[2][:200],
                   state)
        sim.resolve_shares(*columns)
        del spied["get_many"][:], spied["_draw_splits"][:]
        hits = sim.cache_stats()["share_hits"]
        sim.resolve_shares(*columns)
        (keys,), drawn = spied["get_many"], spied["_draw_splits"]
        assert isinstance(keys, np.ndarray) and keys.dtype == np.int64
        assert drawn == []
        assert sim.cache_stats()["share_hits"] - hits == len(keys) > 0

    def test_changes_run_once_per_cached_expansion(self, spied):
        """A miss compares the content with each cached expansion once;
        the base it derives from reuses its comparison."""
        spied["spy"](Scenario, "_changes", lambda base, content: base)
        spied["spy"](Scenario, "_stale_rows",
                     lambda base, changes: (base, changes))
        sc, state, _base, links = self.world(spied)
        self.probe(sc, state, links[0], self.HOUR)
        del spied["_changes"][:], spied["_stale_rows"][:]
        cached = list(sc._expansions.values())
        self.probe(sc, state, links[1], self.HOUR)
        compared = spied["_changes"]
        assert len(cached) >= 2
        assert sorted(map(id, compared)) == sorted(map(id, cached))
        ((base, changes),) = spied["_stale_rows"]
        assert any(base is each for each in cached)
        assert changes.days == (base.content[0], self.HOUR // 24)

