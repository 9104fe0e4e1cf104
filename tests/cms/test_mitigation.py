"""Tests for the congestion mitigation system."""

import numpy as np
import pytest

from repro.bgp import AdvertisementState
from repro.cms import CMSConfig, CongestionMitigationSystem, TrafficSample
from repro.cms.mitigation import running_sum
from repro.core import FEATURES_AP, HistoricalModel
from repro.pipeline import FlowContext
from repro.topology import (
    CloudWAN,
    DestPrefix,
    MetroCatalog,
    PeeringLink,
    Region,
)

from tests.cms.entry_oracle import (
    candidates_by_entry,
    entries_of,
    hexed,
    hexed_candidates,
    observed_totals,
    sample_of_entries as sample,
    totals_by_entry,
)
from tests.core.builders import from_rows

GBPS_HOUR = 1e9 / 8.0 * 3600.0


def ctx(prefix):
    return FlowContext(1, prefix, 0, 0, 0)


@pytest.fixture()
def wan():
    metros = MetroCatalog()
    links = [
        PeeringLink(0, 100, "iad", "iad-er1", 1.0),
        PeeringLink(1, 100, "iad", "iad-er2", 1.0),
        PeeringLink(2, 100, "atl", "atl-er1", 1.0),
        PeeringLink(3, 100, "chi", "chi-er1", 1.0),
    ]
    dests = [DestPrefix(0, "100.64.0.0/24", "r", "web"),
             DestPrefix(1, "100.64.1.0/24", "r", "web")]
    return CloudWAN(8075, links, [Region("r", "iad")], dests, metros)


def entries_at(link, volume_gbps, prefix_id=0, n=4):
    """(link, prefix, context, bytes) rows: ``n`` flows sharing a volume."""
    per = volume_gbps * GBPS_HOUR / n
    return [(link, prefix_id, ctx(100 + i), per) for i in range(n)]


class TestBlindCMS:
    def test_withdraws_on_congestion(self, wan):
        cms = CongestionMitigationSystem(wan, CMSConfig(coordinated=False))
        state = AdvertisementState(wan)
        actions = cms.handle_sample(0, state, sample(entries_at(0, 0.9)))
        kinds = [a.kind for a in actions]
        assert "withdraw" in kinds
        assert not state.is_available(0, 0)

    def test_no_action_below_threshold(self, wan):
        cms = CongestionMitigationSystem(wan)
        state = AdvertisementState(wan)
        assert cms.handle_sample(0, state, sample(entries_at(0, 0.5))) == []

    def test_fewest_prefixes_largest_first(self, wan):
        cms = CongestionMitigationSystem(wan, CMSConfig(coordinated=False))
        state = AdvertisementState(wan)
        entries = entries_at(0, 0.7, prefix_id=0) + entries_at(
            0, 0.25, prefix_id=1)
        cms.handle_sample(0, state, sample(entries))
        # withdrawing the big prefix alone brings 0.95 under target 0.70
        assert not state.is_available(0, 0)
        assert state.is_available(1, 0)

    def test_withdrawal_budget(self, wan):
        config = CMSConfig(coordinated=False, max_withdrawals_per_event=1,
                           target=0.1)
        cms = CongestionMitigationSystem(wan, config)
        state = AdvertisementState(wan)
        entries = entries_at(0, 0.5, prefix_id=0) + entries_at(
            0, 0.45, prefix_id=1)
        cms.handle_sample(0, state, sample(entries))
        withdrawn = [p for p in (0, 1) if not state.is_available(p, 0)]
        assert len(withdrawn) == 1


class TestTipsyGuidedCMS:
    def _predictor(self, target_links):
        return from_rows(HistoricalModel, FEATURES_AP, [
            row for i in range(4) for row in (
                (ctx(100 + i), 0, 100.0),
                *((ctx(100 + i), target, 10.0) for target in target_links))])

    def test_unsafe_withdrawal_skipped(self, wan):
        # prediction says everything lands on link 1, which is already hot
        cms = CongestionMitigationSystem(
            wan, CMSConfig(coordinated=False),
            predictor=self._predictor(target_links=(1,)))
        state = AdvertisementState(wan)
        entries = entries_at(0, 0.9, prefix_id=0) + entries_at(
            1, 0.8, prefix_id=1)
        actions = cms.handle_sample(0, state, sample(entries))
        kinds = [a.kind for a in actions]
        assert "skip-unsafe" in kinds
        assert state.is_available(0, 0)

    def test_safe_withdrawal_proceeds(self, wan):
        # predicted targets (links 2, 3) are idle and split the spill
        cms = CongestionMitigationSystem(
            wan, CMSConfig(coordinated=False),
            predictor=self._predictor(target_links=(2, 3)))
        state = AdvertisementState(wan)
        actions = cms.handle_sample(0, state, sample(entries_at(0, 0.9)))
        assert any(a.kind == "withdraw" for a in actions)
        assert not state.is_available(0, 0)

    def test_predicted_spill_recorded(self, wan):
        cms = CongestionMitigationSystem(
            wan, CMSConfig(coordinated=False),
            predictor=self._predictor(target_links=(2, 3)))
        state = AdvertisementState(wan)
        actions = cms.handle_sample(0, state, sample(entries_at(0, 0.9)))
        withdraw = next(a for a in actions if a.kind == "withdraw")
        spilled_links = [l for l, _b in withdraw.predicted_spill]
        assert 2 in spilled_links

    def test_unplaceable_bytes_recorded_under_link_minus_one(self, wan):
        # flows 102 and 103 were only ever seen at the congested link:
        # withdrawn there, no link would take them
        model = from_rows(HistoricalModel, FEATURES_AP, [
            *((ctx(100 + i), 0, 100.0) for i in range(4)),
            *((ctx(100 + i), 2, 10.0) for i in range(2))])
        cms = CongestionMitigationSystem(
            wan, CMSConfig(coordinated=False), predictor=model)
        state = AdvertisementState(wan)
        actions = cms.handle_sample(0, state, sample(entries_at(0, 0.9)))
        withdraw = next(a for a in actions if a.kind == "withdraw")
        half = 0.9 * GBPS_HOUR / 2
        assert dict(withdraw.predicted_spill) == {
            -1: pytest.approx(half), 2: pytest.approx(half)}
        assert not state.is_available(0, 0)


class TestReannouncement:
    def test_reannounce_after_volume_drops(self, wan):
        cms = CongestionMitigationSystem(wan, CMSConfig(coordinated=False))
        state = AdvertisementState(wan)
        cms.handle_sample(0, state, sample(entries_at(0, 0.9)))
        assert cms.pending_reannouncements
        # next sample: the prefix's demand collapsed
        actions = cms.handle_sample(1, state, sample(entries_at(1, 0.1)))
        assert any(a.kind == "reannounce" for a in actions)
        assert state.is_available(0, 0)
        assert not cms.pending_reannouncements

    def test_no_reannounce_while_volume_high(self, wan):
        cms = CongestionMitigationSystem(wan, CMSConfig(coordinated=False))
        state = AdvertisementState(wan)
        cms.handle_sample(0, state, sample(entries_at(0, 0.9)))
        # demand persists (shifted to link 1)
        actions = cms.handle_sample(1, state, sample(entries_at(1, 0.82)))
        assert not any(a.kind == "reannounce" for a in actions)
        assert not state.is_available(0, 0)


class TestCoordinated:
    def test_coordinated_plan_grows_until_safe(self, wan):
        # history: traffic on link 0 primarily, link 1 secondary; links
        # 2, 3 known with small mass — the planner should discover that
        # withdrawing at 0 pushes to 1 (unsafe) and settle on {0, 1}
        model = from_rows(HistoricalModel, FEATURES_AP, [
            (ctx(100 + i), link, bytes_) for i in range(4)
            for link, bytes_ in ((0, 100.0), (1, 10.0), (2, 1.0), (3, 1.0))])
        cms = CongestionMitigationSystem(
            wan, CMSConfig(coordinated=True), predictor=model)
        state = AdvertisementState(wan)
        entries = entries_at(0, 0.9, prefix_id=0) + entries_at(
            1, 0.5, prefix_id=1)
        actions = cms.handle_sample(0, state, sample(entries))
        coordinated = [a for a in actions if a.kind == "withdraw-coordinated"]
        assert coordinated
        withdrawn_links = {a.link_id for a in coordinated}
        assert 0 in withdrawn_links and 1 in withdrawn_links
        for link in withdrawn_links:
            assert not state.is_available(0, link)


#: nine byte counts whose running sum is 2.5 * 2**30 exactly, while
#: numpy's pairwise summation (``np.sum``, ``np.add.reduceat``) lands one
#: ulp above it
PAIRWISE_TRAP = [2.0 ** 30] + [2.0 ** -23] * 5 + [2.0 ** 29] * 3


class TestColumnarSample:
    """``handle_sample`` over columns acts on exactly what the per-entry
    walk it replaced computed (``tests/cms/entry_oracle.py``)."""

    def trap(self):
        """A sample whose first-seen key order is not sorted order and
        whose link 0 / prefix 0 totals fall into the pairwise trap."""
        rows = [(3, 1, ctx(1), 5.0)]
        rows += [(0, 0, ctx(10 + i), b) for i, b in enumerate(PAIRWISE_TRAP)]
        rows += [(2, 1, ctx(2), 0.25), (3, 0, ctx(3), 1.5)]
        return sample(rows)

    def test_the_trap_separates_running_from_pairwise_sums(self):
        trap = np.array(PAIRWISE_TRAP)
        running = 0.0
        for b in PAIRWISE_TRAP:
            running += b
        assert float(np.sum(trap)) != running
        assert float(np.add.reduceat(trap, [0])[0]) != running
        assert float(np.bincount(np.zeros(len(trap), dtype=np.int64),
                                 weights=trap)[0]) == running

    def test_totals_equal_the_entry_walk_bit_for_bit(self, wan):
        traffic = self.trap()
        links, prefixes = observed_totals(
            CongestionMitigationSystem(wan), AdvertisementState(wan), traffic)
        want_links, want_prefixes = totals_by_entry(entries_of(traffic))
        assert list(links) == [3, 0, 2]
        assert hexed(links) == hexed(want_links)
        assert hexed(prefixes) == hexed(want_prefixes)

    def test_candidates_equal_the_entry_walk(self, wan):
        rows = entries_at(0, 0.3, prefix_id=1) + entries_at(
            1, 0.5, prefix_id=0) + entries_at(0, 0.3, prefix_id=0, n=3)
        rows += [(0, 1, ctx(7), 2.0 ** -20)]
        traffic = sample(rows)
        cms = CongestionMitigationSystem(wan)
        for link in (0, 1, 2):
            got = cms._candidates(traffic, link)
            want = candidates_by_entry(entries_of(traffic), link)
            assert hexed_candidates(got) == hexed_candidates(want)
        # equal totals keep their first-seen order; the tiny extra flow
        # puts prefix 1 ahead
        assert [p for p, _ in cms._candidates(traffic, 0)] == [1, 0]

    def test_an_empty_sample_acts_on_nothing(self, wan):
        cms = CongestionMitigationSystem(wan)
        empty = TrafficSample(*(np.empty(0, dtype=np.int64),) * 3,
                              np.empty(0, dtype=np.float64), ())
        links, prefixes = observed_totals(cms, AdvertisementState(wan), empty)
        assert links == {} and prefixes == {}
        assert cms.actions == []


#: a sum whose left-to-right value (1.0) is not its compensated one:
#: from Python 3.12 the builtin ``sum`` of floats compensates and gives
#: 1.0000000000000002, one ulp above
TINY_TAIL = (1.0, 1e-16, 1e-16)


class TestLeftToRightSums:
    """The CMS adds floats left to right on every interpreter, so a
    decision does not depend on which Python runs it."""

    def test_running_sum_is_the_left_to_right_walk(self):
        assert running_sum(TINY_TAIL) == running_sum(iter(TINY_TAIL)) == 1.0
        assert running_sum(()) == 0.0

    def test_candidates_rank_by_the_running_total(self, wan):
        # prefix 0 runs to exactly 1.0, prefix 1 holds one ulp more;
        # compensated, the two would tie and keep first-seen order
        rows = [(0, 0, ctx(i), b) for i, b in enumerate(TINY_TAIL)]
        rows.append((0, 1, ctx(9), 1.0000000000000002))
        got = CongestionMitigationSystem(wan)._candidates(sample(rows), 0)
        assert [prefix for prefix, _ in got] == [1, 0]
        assert hexed_candidates(got) == hexed_candidates(
            candidates_by_entry(rows, 0))
