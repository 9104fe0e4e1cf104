"""Differential property test: the columnar aggregator vs the record walk.

``aggregate_hour_columns`` joins by indexing arrays with prefix ids — a
prefix is walked through the dict-cached join only in the hour it first
appears, and the ids outside the range the store knows share one spare
slot, walked like any other — and its docstring promises it is
interchangeable with ``aggregate_hour`` *mid-stream*.  The reference is
one aggregator fed every hour record by record; the aggregator under
test takes each hour by whichever path the example says.  Whatever the stream — prefixes
that first appear late, destinations the store does not know (inside
its id range and outside it: negative, or past 2**40), sources outside
it, non-positive byte counts, empty hours, the two paths in any
interleaving — every hour's rows and byte sums, the running ``stats``,
every encoder's ``values()`` and, in strict mode, the text of the error
must be the record path's.

Hand mutants of ``aggregate_hour_columns`` and ``PrefixJoin`` this
suite kills (each applied, seen to fail here, and reverted):

* new ids walked in sorted order instead of first-occurrence order
  (``for at in first.tolist()``): encoder codes differ;
* source prefixes of dropped rows given a location code (join
  ``src_prefix_ids``, then gather the valid rows): the location encoder
  holds metros the record path never saw;
* the arrays not filled by a walk (``column[slots[at]] = code``
  dropped): the rows of every new prefix come back unjoined;
* rows dropped for their bytes walked too (``& ~bad`` dropped from the
  walk mask): their destinations' regions and services are encoded,
  which the record path never did, or a strict run raises on the wrong
  row;
* ids outside the range clipped to the last id's slot instead of the
  spare one (``len(self._ids) - 1``): the last source in range and the
  ids the store cannot know read each other's location.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import HourlyAggregator
from repro.telemetry import IpfixRecord

#: destinations 0..5 are known to the store, 6 and 7 are not (though
#: inside the id range it reports)
N_DESTS, N_KNOWN_DESTS = 8, 6
N_SOURCES = 12
#: ids outside both ranges the store reports, at either end of int64
ODD_IDS = st.sampled_from([-1, -(2 ** 40), 2 ** 40, 2 ** 40 + 1])


class SmallStore:
    """The two joins an aggregator asks a ``MetadataStore`` for, over an
    id universe small enough that hours share most of their prefixes."""

    def destination_features(self, dest_prefix_id):
        if not 0 <= dest_prefix_id < N_KNOWN_DESTS:
            raise KeyError(f"unknown destination prefix {dest_prefix_id}")
        return f"region{dest_prefix_id % 3}", f"svc{dest_prefix_id % 2}"

    def source_location(self, src_prefix_id):
        # a metro per source, so a location coded for a row the record
        # path dropped shows in the encoder; some Geo-IP misses
        if not 0 <= src_prefix_id < N_SOURCES or src_prefix_id % 5 == 2:
            return None
        return f"metro{src_prefix_id}"

    def id_ranges(self):
        return range(N_DESTS), range(N_SOURCES)


#: mixed magnitudes, so a sum taken in another order rounds differently;
#: zero and a negative are the collector's garbage
BYTES = st.sampled_from([1.0, 2.5, 1e16, 3e-3, 7e5, 0.0, -4.0])


@st.composite
def hours(draw):
    """One hour: ids drawn below a per-hour bound (so high ids first
    appear late), destinations mostly known, in some hours ids the
    store cannot know, and which path takes it."""
    n_sources = draw(st.integers(1, N_SOURCES))
    n_dests = draw(st.sampled_from([1, 3, N_KNOWN_DESTS, N_DESTS]))
    sources = st.integers(0, n_sources - 1)
    dests = st.integers(0, n_dests - 1)
    if draw(st.sampled_from([False, False, True])):
        # with the last source in range, which must not share their slot
        sources = sources | ODD_IDS | st.just(N_SOURCES - 1)
        dests = dests | ODD_IDS
    rows = draw(st.lists(
        st.tuples(st.integers(0, 2), sources, dests, BYTES), max_size=25))
    return rows, draw(st.booleans())


def columns_of(records):
    def column(field, dtype=np.int64):
        return np.array([getattr(r, field) for r in records], dtype=dtype)
    return (column("link_id"), column("src_prefix_id"), column("src_asn"),
            column("dest_prefix_id"), column("bytes", np.float64))


def outcome(call):
    """``(rows, None)`` or ``(None, error text)``."""
    try:
        return call(), None
    except ValueError as exc:
        return None, str(exc)


def encoder_values(aggregator):
    encoders = aggregator.encoders
    return (encoders.location.values(), encoders.region.values(),
            encoders.service.values())


class TestAggregatorPaths:
    @given(st.lists(hours(), min_size=2, max_size=10), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equal_the_record_path(self, stream, strict):
        reference = HourlyAggregator(SmallStore(), strict=strict)
        mixed = HourlyAggregator(SmallStore(), strict=strict)
        for hour, (rows, use_columns) in enumerate(stream):
            records = [IpfixRecord(hour, link, src, 64500 + src % 4, dest,
                                   bytes_)
                       for link, src, dest, bytes_ in rows]
            want, want_error = outcome(
                lambda: reference.aggregate_hour(hour, records))
            if use_columns:
                got, error = outcome(
                    lambda: mixed.aggregate_hour_columns(
                        hour, *columns_of(records)).to_records())
            else:
                got, error = outcome(
                    lambda: mixed.aggregate_hour(hour, records))
            assert error == want_error
            if error is not None:
                # a strict failure ends the stream: the record path has
                # by then coded the rows before the failing one, the
                # columnar path raises before it codes any location
                assert strict
                return
            assert got == want              # rows, order, exact sums
            assert mixed.stats == reference.stats
            assert encoder_values(mixed) == encoder_values(reference)
