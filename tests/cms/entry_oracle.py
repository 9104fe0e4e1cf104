"""The per-entry CMS loop the columnar ``TrafficSample`` replaced, kept as
an oracle.

``handle_sample`` used to keep running ``dict.get(key, 0.0) + bytes``
totals per link and per prefix over a list of per-entry objects, and
``_mitigate`` grouped the congested link's entries by prefix the same
way.  The functions here walk a sample's rows one at a time exactly like
that; :class:`EntryCMS` is the CMS with both steps done by them.
"""

import numpy as np

from repro.cms import CongestionMitigationSystem, TrafficSample


def entries_of(sample):
    """The sample's rows as (link, prefix, context, bytes) python tuples."""
    contexts = sample.contexts
    return [(link, prefix, contexts[row], bytes_)
            for link, prefix, row, bytes_ in zip(
                sample.link_ids.tolist(), sample.dest_prefix_ids.tolist(),
                sample.flow_rows.tolist(), sample.bytes.tolist())]


def sample_of_entries(entries):
    """(link, prefix, context, bytes) rows as a :class:`TrafficSample`,
    one context per row: the inverse of :func:`entries_of`."""
    links, prefixes, contexts, bytes_ = zip(*entries)
    return TrafficSample(
        np.array(links, dtype=np.int64), np.array(prefixes, dtype=np.int64),
        np.arange(len(entries), dtype=np.int64),
        np.array(bytes_, dtype=np.float64), contexts)


def totals_by_entry(entries):
    """(link totals, prefix totals), each a running sum in entry order."""
    link_bytes, prefix_bytes = {}, {}
    for link, prefix, _context, bytes_ in entries:
        link_bytes[link] = link_bytes.get(link, 0.0) + bytes_
        prefix_bytes[prefix] = prefix_bytes.get(prefix, 0.0) + bytes_
    return link_bytes, prefix_bytes


def candidates_by_entry(entries, link_id):
    """The link's entries grouped by prefix, the largest running total
    first."""
    by_prefix, totals = {}, {}
    for link, prefix, context, bytes_ in entries:
        if link == link_id:
            by_prefix.setdefault(prefix, []).append((context, bytes_))
            totals[prefix] = totals.get(prefix, 0.0) + bytes_
    return sorted(by_prefix.items(), key=lambda kv: -totals[kv[0]])


class EntryCMS(CongestionMitigationSystem):
    """The CMS with its totals and its candidate grouping done entry by
    entry; everything else is the real one's."""

    def handle_sample(self, sample_index, state, sample):
        link_bytes, prefix_bytes = totals_by_entry(entries_of(sample))
        taken = []
        taken.extend(self._maybe_reannounce(sample_index, state, prefix_bytes))
        for event in self.monitor.observe(sample_index, link_bytes):
            taken.extend(self._mitigate(sample_index, state, sample,
                                        link_bytes, prefix_bytes, event))
        self.actions.extend(taken)
        return taken

    @staticmethod
    def _candidates(sample, link_id):
        return candidates_by_entry(entries_of(sample), link_id)


def observed_totals(cms, state, sample):
    """The (link totals, prefix totals) ``cms.handle_sample`` acts on:
    what it hands the monitor and the re-announcement check."""
    seen = {}
    observe, reannounce = cms.monitor.observe, cms._maybe_reannounce

    def spy_observe(sample_index, link_bytes):
        seen["links"] = dict(link_bytes)
        return observe(sample_index, link_bytes)

    def spy_reannounce(sample_index, state, prefix_bytes):
        seen["prefixes"] = dict(prefix_bytes)
        return reannounce(sample_index, state, prefix_bytes)

    cms.monitor.observe = spy_observe
    cms._maybe_reannounce = spy_reannounce
    try:
        cms.handle_sample(0, state, sample)
    finally:
        del cms.monitor.observe, cms._maybe_reannounce
    return seen["links"], seen["prefixes"]


def hexed(totals):
    """Totals as (key, ``float.hex``) pairs in dict order: equal exactly
    when the keys, their order and every bit of every sum are."""
    return [(key, value.hex()) for key, value in totals.items()]


def hexed_candidates(candidates):
    """Candidates with every byte count as ``float.hex``."""
    return [(prefix, [(context, bytes_.hex()) for context, bytes_ in flows])
            for prefix, flows in candidates]
