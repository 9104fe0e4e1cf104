"""Differential property test: the CMS over columns vs the entry walk.

``CongestionMitigationSystem.handle_sample`` reads an hour as a
``TrafficSample`` — aligned link / prefix / flow-row / byte columns —
and totals it per link and per prefix with ``first_seen_sums``.  The
reference is the walk it replaced (``tests/cms/entry_oracle.py``):
running ``dict.get(key, 0.0) + bytes`` sums in entry order, and the
congested link's entries grouped by prefix one at a time.  Whatever the
samples — keys in any order, repeated keys, byte counts where numpy's
pairwise summation and a running sum part by an ulp — the two must
agree to the bit: totals with their key order, every link's candidate
prefixes in order with their flows, and, sample after sample, the
actions taken and the advertisement state left behind, blind and
TIPSY-guided.  Hand mutants this suite kills: ``np.add.reduceat`` over
key-sorted rows, or ``np.sum`` per key, in place of ``bincount``; keys
emitted in sorted rather than first-seen order; a sort that is not
stable among equal prefix totals.

The risk analysis (Appendix C's Algorithm 1) reads the same samples:
over random multi-hour samples, at every grouping, ``RiskAnalyzer``
must find what the two entry-walk loops it replaced find
(``tests/cms/risk_oracle.py``) — every field, in order.  Hand mutants
this suite kills: ``np.sum`` per link in place of the first-seen total;
skipping only the failed link rather than its whole group; dropping the
already-over-threshold exclusion; single-link findings sorted by
``str`` of the link.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bgp import AdvertisementState
from repro.cms import (CMSConfig, CongestionMitigationSystem, RiskAnalyzer,
                       TrafficSample)
from repro.core import FEATURES_AP, HistoricalModel
from repro.pipeline import FlowContext
from repro.topology import (CloudWAN, DestPrefix, MetroCatalog, PeeringLink,
                            Region)

from tests.cms.entry_oracle import (EntryCMS, candidates_by_entry,
                                    entries_of, hexed, hexed_candidates,
                                    observed_totals, totals_by_entry)
from tests.cms.risk_oracle import oracle_findings, stated
from tests.core.builders import from_rows

LINKS = 4
PREFIXES = 3
FLOWS = 6
#: one link-hour at 100 % of a 1 Gbps link
FULL = 1e9 / 8.0 * 3600.0

CONTEXTS = tuple(FlowContext(1, 100 + i, 0, 0, 0) for i in range(FLOWS))

#: byte counts: a share of a full link-hour, or the magnitudes of the
#: pairwise trap (a running sum of 1, five 2**-53 and three 0.5 is 2.5;
#: numpy's pairwise sum is one ulp above), scaled to a link-hour
byte_counts = st.one_of(
    st.floats(0.001, 0.6).map(lambda share: share * FULL),
    st.sampled_from([1.0, 2.0 ** -53, 0.5]).map(lambda b: b * FULL))

rows = st.lists(
    st.tuples(st.integers(0, LINKS - 1), st.integers(0, PREFIXES - 1),
              st.integers(0, FLOWS - 1), byte_counts),
    max_size=40)


def wan():
    links = [PeeringLink(i, 100, metro, f"{metro}-er1", 1.0)
             for i, metro in enumerate(("iad", "atl", "chi", "dfw"))]
    dests = [DestPrefix(p, f"100.64.{p}.0/24", "r", "web")
             for p in range(PREFIXES)]
    return CloudWAN(8075, links, [Region("r", "iad")], dests, MetroCatalog())


def predictor():
    return from_rows(HistoricalModel, FEATURES_AP, [
        row for i, context in enumerate(CONTEXTS) for row in (
            (context, i % LINKS, 100.0), (context, (i + 1) % LINKS, 10.0))])


def sample_of(drawn):
    links, prefixes, flows, bytes_ = zip(*drawn) if drawn else ((),) * 4
    return TrafficSample(
        np.array(links, dtype=np.int64), np.array(prefixes, dtype=np.int64),
        np.array(flows, dtype=np.int64), np.array(bytes_, dtype=np.float64),
        CONTEXTS)


@given(st.lists(rows, min_size=1, max_size=6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_columns_equal_the_entry_walk(samples, guided):
    network = wan()
    model = predictor() if guided else None
    config = CMSConfig(coordinated=guided)
    columnar = CongestionMitigationSystem(network, config, predictor=model)
    walked = EntryCMS(network, config, predictor=model)
    state, mirror = AdvertisementState(network), AdvertisementState(network)
    for index, drawn in enumerate(samples):
        sample = sample_of(drawn)
        entries = entries_of(sample)
        for link in range(LINKS):
            assert hexed_candidates(
                columnar._candidates(sample, link)) == hexed_candidates(
                    candidates_by_entry(entries, link))
        links, prefixes = observed_totals(columnar, state, sample)
        want_links, want_prefixes = totals_by_entry(entries)
        assert hexed(links) == hexed(want_links)
        assert hexed(prefixes) == hexed(want_prefixes)
        walked.handle_sample(0, mirror, sample)
        assert columnar.actions == walked.actions, index
        for prefix in range(PREFIXES):
            assert state.removal_key(prefix) == mirror.removal_key(prefix)


#: the risk analysis's WAN: link ids on both sides of 9, so an order by
#: ``str`` differs from one by number, and routers, metros and peers
#: that each group the links differently
RISK_LINKS = ((2, 100, "iad", "iad-er1"), (9, 100, "iad", "iad-er2"),
              (10, 200, "iad", "iad-er2"), (11, 300, "chi", "chi-er1"))
RISK_IDS = tuple(link_id for link_id, *_ in RISK_LINKS)

#: the pairwise trap at a link-hour scale: four full link-hours and five
#: of 2**-53 run to exactly 4.0 of a link's capacity; numpy's pairwise
#: sum is one ulp above — the threshold that tells them apart
TRAP = (1.0,) * 4 + (2.0 ** -53,) * 5
TRAP_THRESHOLD = float(np.sum(np.array(TRAP) * FULL)) / FULL


class OutageBlind(HistoricalModel):
    """A model that has not heard of the outage: it predicts as if every
    link were up, so a failed link can come back as a target."""

    def predict(self, context, k, unavailable=frozenset()):
        return super().predict(context, k)


def risk_wan():
    links = [PeeringLink(link_id, peer, metro, router, 1.0)
             for link_id, peer, metro, router in RISK_LINKS]
    dests = [DestPrefix(p, f"100.64.{p}.0/24", "r", "web")
             for p in range(PREFIXES)]
    return CloudWAN(8075, links, [Region("r", "iad")], dests, MetroCatalog())


def risk_model(honours_outages):
    return from_rows(
        HistoricalModel if honours_outages else OutageBlind, FEATURES_AP,
        [(context, link_id, 100.0 / (1 + (i + j) % 4))
         for i, context in enumerate(CONTEXTS)
         for j, link_id in enumerate(RISK_IDS)])


def risk_sample(drawn):
    return sample_of([(RISK_IDS[link], prefix, flow, bytes_)
                      for link, prefix, flow, bytes_ in drawn])


#: link 2 at exactly 4.0 of its capacity by a running sum, and a flow on
#: link 9 that fails over onto it
TRAP_HOUR = ([(0, 0, 0, b * FULL) for b in TRAP]
             + [(1, 0, 1, 0.5 * FULL)])
#: links 2, 9 and 10 at half load: failing 9 or 10 pushes link 2 over,
#: a tie between affecting links that an order by ``str`` turns round
TIE_HOUR = [(link, 0, 0, 0.5 * FULL) for link in range(3)]
#: link 9 already over the threshold when link 2's flow fails over to it
OVER_HOUR = [(1, 0, 0, 0.8 * FULL), (0, 0, 1, 0.5 * FULL)]


@given(st.lists(rows, min_size=1, max_size=4), st.booleans(),
       st.sampled_from([0.7, TRAP_THRESHOLD]), st.integers(1, 2))
@example([TRAP_HOUR], True, TRAP_THRESHOLD, 1)
@example([TIE_HOUR], True, 0.7, 1)
@example([OVER_HOUR], True, 0.7, 1)
@example([TIE_HOUR], False, 0.7, 1)
@settings(max_examples=60, deadline=None)
def test_risk_analyzer_equals_the_entry_loops(hours, honours_outages,
                                              threshold, min_extra_hours):
    network = risk_wan()
    model = risk_model(honours_outages)
    samples = [risk_sample(drawn) for drawn in hours]
    analyzer = RiskAnalyzer(network, model, threshold)
    for group_by in ("link", "router", "metro", "peer"):
        found = analyzer.analyze(iter(samples), group_by, min_extra_hours)
        assert stated(found) == oracle_findings(
            network, model, samples, group_by, threshold,
            min_extra_hours), group_by
