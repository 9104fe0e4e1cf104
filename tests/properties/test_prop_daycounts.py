"""Differential property test: the columnar window table vs the dict path.

``TipsyService`` keeps each window day as a ``DayCounts`` — seven
columns folded with numpy group-bys.  The reference is the form it
replaced: the same service with every day held by a
``CountsAccumulator`` (``tests/core/counts_oracle.py``) fed
``AggRecord`` lists one record at a time (``consume_hour`` + ``project``
+ ``to_arrays``).  Whatever the stream —
keys recurring across hours in any order, several batches of one hour,
bursts of one key, empty hours, day gaps that evict the window, a
snapshot -> restore cut anywhere including mid-day — the two must agree
to the bit: stored tables, all three grain projections down to key and
link order, the models folded from them, answers, and the snapshot
directories byte for byte.

``DayCounts.add_hour`` finds the rows an hour's keys already have
through a sorted index of mixed-radix codes over fixed per-column
ranges, and each path that adds runs here: a key twice in one hour (the
bursts), an hour whose keys the table all holds (only the value column
is rebuilt), an hour whose values lie outside the ranges the first hour
fixed (prefixes first seen late: a re-index), a restored table's first
hour (the index is built over adopted arrays), and — in the second key
universe, ASNs near 2^32 and prefix ids near 2^40 — ranges too wide for
62 bits, where the table falls back to a whole fold, often mid-day.
Hand mutants of ``add_hour`` this suite kills (each applied, seen to
fail here, and reverted): ``value[rows] += bytes`` in place of
``np.add.at`` (a key twice in an hour loses an addend); the index not
extended after new keys are appended (their next hour appends them
again); the sums of an hour with no new keys added in place onto the
held value column (``dict(self._table)`` for the copy), so a table or
projection handed out earlier changes under its reader
(``TestHandedOut``).
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import window as window_module
from repro.core.ensemble import BASE_GRAINS
from repro.core.service import ServiceConfig, TipsyService
from repro.core.training import DayCounts
from repro.pipeline import AggColumns, AggRecord, FlowContext
from repro.store.codec import decode_keyed_table, encode_keyed_table
from repro.topology import (CloudWAN, DestPrefix, MetroCatalog, PeeringLink,
                            Region)
from tests.core.counts_oracle import CountsAccumulator

WINDOW_DAYS = 2

#: (src_asn, src_prefix, src_loc, dest_region, dest_service, link): few
#: enough feature values that every grain folds a dozen keys into one
KEYS = [(1 + p % 2, p, p % 3 - 1, 0, p % 5 // 4, link)
        for p in range(24) for link in (2, 0, 1)]
#: the same shape at magnitudes whose ranges cannot share 62 bits
WIDE_KEYS = [((1, 2**32 - 2)[p % 2], (p + 1) << 36, p % 3 - 1, 0, p % 5 // 4,
              link)
             for p in range(16) for link in (2, 0, 1)]

#: one batch: how far the clock moves (0 = another batch of the same
#: hour; 24+ skips days, so the window evicts), which keys it carries,
#: and how often the batch repeats them (a burst gives one key more
#: addends in a single fold than pairwise summation handles in order)
batches = st.lists(
    st.tuples(st.sampled_from([0, 0, 1, 1, 1, 1, 7, 24, 30, 80]),
              st.lists(st.integers(0, len(KEYS) - 1), max_size=30),
              st.sampled_from([1, 1, 1, 9])),
    min_size=3, max_size=24)


def wan() -> CloudWAN:
    links = [PeeringLink(i, 100 + i, metro, f"{metro}-er1", 100.0)
             for i, metro in enumerate(("iad", "nyc", "atl"))]
    return CloudWAN(8075, links, [Region("r", "iad")],
                    [DestPrefix(0, "100.64.0.0/24", "r", "web")],
                    MetroCatalog())


def stream_of(sequence, seed, keys):
    """``[(hour, AggRecord list)]`` with byte counts of mixed magnitude,
    so sums taken in any other order round differently."""
    rng = np.random.default_rng(seed)
    hour, out = 0, []
    for advance, picks, repeat in sequence:
        hour += advance
        picks = [pick % len(keys) for pick in picks] * repeat
        sizes = np.exp(rng.uniform(-3.0, 21.0, size=len(picks))).tolist()
        out.append((hour, [
            AggRecord(hour, keys[pick][5], *keys[pick][:5], size)
            for pick, size in zip(picks, sizes)]))
    return out


def contexts_of(keys):
    return [FlowContext(*key[:5]) for key in keys[::3]] + [
        FlowContext(9, 99, 0, 0, 0)]


class RecordPathDay:
    """A window day on the dict path: what ``DayCounts`` replaced."""

    def __init__(self):
        self.counts = CountsAccumulator()
        self.to_arrays = self.counts.to_arrays

    def add_hour(self, columns):
        self.counts.consume_hour(columns.hour, list(columns.to_records()))

    def project(self, feature_set):
        """The dict projection, laid out as the columns a retrain folds."""
        nested = self.counts.project(feature_set)
        return encode_keyed_table(
            {(*key, link): bytes_ for key, links in nested.items()
             for link, bytes_ in links.items()},
            len(feature_set.fields) + 1)


def new_service():
    return TipsyService(wan(), ServiceConfig(
        training_window_days=WINDOW_DAYS))


def files_of(directory):
    return {path.name: path.read_bytes()
            for path in sorted(Path(directory).iterdir())}


def nested_items(projection, feature_set):
    """Keys in first-seen order, each with its links in first-seen order."""
    nested = {}
    for (*key, link), bytes_ in decode_keyed_table(
            projection, len(feature_set.fields) + 1):
        nested.setdefault(tuple(key), []).append((link, bytes_))
    return list(nested.items())


def assert_same(service, reference, contexts):
    assert list(service.window._days) == list(reference.window._days)
    assert service.trained_days == reference.trained_days
    for day, table in service.window._days.items():
        got, want = table.to_arrays(), reference.window._days[day].to_arrays()
        assert list(got) == list(want)
        for name, column in want.items():
            assert got[name].dtype == column.dtype
            assert got[name].tobytes() == column.tobytes(), (day, name)
        for grain in BASE_GRAINS:
            assert (nested_items(table.project(grain), grain)
                    == nested_items(reference.window._days[day].project(grain),
                                    grain))
    for name in ("Hist_AP", "Hist_AL", "Hist_A"):
        got, want = service.model(name), reference.model(name)
        assert ({column: values.tolist()
                 for column, values in got.to_arrays().items()}
                == {column: values.tolist()
                    for column, values in want.to_arrays().items()}), name
        assert got.rankings() == want.rankings(), name
    assert (service.predict_batch(contexts)
            == reference.predict_batch(contexts))
    flows = [(context, 1000.0 + i) for i, context in enumerate(contexts)]
    for withdrawn in ({0}, {1, 2}):
        assert (service.what_if(flows, withdrawn)
                == reference.what_if(flows, withdrawn))


class TestDayCounts:
    @given(batches, st.integers(0, 2**32 - 1), st.sampled_from(
        [KEYS, WIDE_KEYS]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_record_path(self, sequence, seed, keys, data):
        stream = stream_of(sequence, seed, keys)
        cut = data.draw(st.integers(1, len(stream)), label="cut")
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            # the reference: every day a CountsAccumulator, fed lists
            with mock.patch.object(window_module, "DayCounts",
                                   RecordPathDay):
                reference = new_service()
                for index, (hour, records) in enumerate(stream):
                    if index == cut:
                        reference.snapshot(scratch / "reference-cut")
                    reference.ingest_hour(hour, records)
                reference.snapshot(scratch / "reference-end")

            # under test: one columns object per batch, handed to both an
            # uninterrupted service and one restarted at the cut
            hours = [AggColumns.of(hour, records)
                     for hour, records in stream]
            handed_in = [[column.tobytes() for column in columns[1:]]
                         for columns in hours]
            steady, restarted = new_service(), new_service()
            for index, columns in enumerate(hours):
                if index == cut:
                    restarted.snapshot(scratch / "cut")
                    assert (files_of(scratch / "cut")
                            == files_of(scratch / "reference-cut"))
                    restarted = TipsyService.restore(
                        scratch / "cut", restarted.wan)
                    assert restarted.restore_report.clean
                steady.ingest_hour(columns.hour, columns)
                restarted.ingest_hour(columns.hour, columns.to_records())
            for name, service in (("steady", steady),
                                  ("restarted", restarted)):
                assert_same(service, reference, contexts_of(keys))
                assert service.retrain_count == reference.retrain_count
                service.snapshot(scratch / name)
                assert (files_of(scratch / name)
                        == files_of(scratch / "reference-end"))
            # nothing handed in was written to
            assert handed_in == [
                [column.tobytes() for column in columns[1:]]
                for columns in hours]


def snapshot_of(table):
    """Every column of a keyed table, as bytes."""
    return {name: column.tobytes() for name, column in table.items()}


class TestHandedOut:
    @given(batches, st.integers(0, 2**32 - 1), st.sampled_from(
        [KEYS, WIDE_KEYS]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_an_hour_with_no_new_keys_leaves_them_alone(
            self, sequence, seed, keys, data):
        """``to_arrays()`` and ``project(...)`` taken before an hour that
        brings no new keys read the same after it: the hour's sums go
        onto a copy of the value column, not the one handed out."""
        hours = [AggColumns.of(hour, records)
                 for hour, records in stream_of(sequence, seed, keys)
                 if records]
        if not hours:
            return
        table = DayCounts()
        for columns in hours:
            table.add_hour(columns)
        again = data.draw(st.sampled_from(hours), label="again")
        arrays = table.to_arrays()
        projections = [table.project(grain)
                       for grain in BASE_GRAINS]
        before = [snapshot_of(arrays),
                  *(snapshot_of(p) for p in projections)]
        held = len(table)
        table.add_hour(again)
        assert len(table) == held           # no new keys
        assert [snapshot_of(arrays),
                *(snapshot_of(p) for p in projections)] == before
        assert (table.to_arrays()["value"].tobytes()
                != arrays["value"].tobytes())
