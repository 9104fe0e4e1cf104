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
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import AdvertisementState
from repro.cms import CMSConfig, CongestionMitigationSystem, TrafficSample
from repro.core import FEATURES_AP, HistoricalModel
from repro.pipeline import FlowContext
from repro.topology import (CloudWAN, DestPrefix, MetroCatalog, PeeringLink,
                            Region)

from tests.cms.entry_oracle import (EntryCMS, candidates_by_entry,
                                    entries_of, hexed, hexed_candidates,
                                    observed_totals, totals_by_entry)

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
    model = HistoricalModel(FEATURES_AP)
    for i, context in enumerate(CONTEXTS):
        model.observe(context, i % LINKS, 100.0)
        model.observe(context, (i + 1) % LINKS, 10.0)
    return model


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
