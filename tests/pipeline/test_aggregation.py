"""Tests for hourly aggregation and metadata joins."""

import numpy as np
import pytest

from repro.core.training import DayCounts
from repro.obs import runtime as obs
from repro.pipeline import HourlyAggregator, UNKNOWN_LOCATION
from repro.pipeline.aggregation import first_seen_groups, sorted_rows
from repro.pipeline.encoding import OrdinalEncoder
from repro.telemetry import GeoIPDatabase, IpfixRecord, MetadataStore
from repro.topology import (
    MetroCatalog,
    TopologyParams,
    WANParams,
    generate_as_graph,
    generate_wan,
)
from repro.traffic import PrefixUniverse


@pytest.fixture()
def aggregator():
    metros = MetroCatalog()
    graph = generate_as_graph(metros, TopologyParams(
        n_tier1=3, n_transit=6, n_access=10, n_cdn=2, n_stub=20), seed=8)
    wan = generate_wan(graph, WANParams(n_regions=4, n_dest_prefixes=12),
                       seed=8)
    universe = PrefixUniverse(graph, seed=8)
    geoip = GeoIPDatabase(universe, metros, error_rate=0.0, seed=8)
    agg = HourlyAggregator(MetadataStore(wan, geoip))
    return agg, wan, universe


def record(universe, wan, hour=0, link=0, prefix_idx=0, dest=0, bytes_=1e6):
    prefix = universe.prefix(prefix_idx)
    return IpfixRecord(hour, link, prefix.prefix_id, prefix.asn, dest, bytes_)


class TestAggregation:
    def test_same_key_summed(self, aggregator):
        agg, wan, universe = aggregator
        records = [record(universe, wan, bytes_=1e6),
                   record(universe, wan, bytes_=2e6)]
        out = agg.aggregate_hour(0, records)
        assert len(out) == 1
        assert out[0].bytes == pytest.approx(3e6)

    def test_different_links_kept_apart(self, aggregator):
        agg, wan, universe = aggregator
        records = [record(universe, wan, link=0),
                   record(universe, wan, link=1)]
        out = agg.aggregate_hour(0, records)
        assert len(out) == 2

    def test_metadata_joined(self, aggregator):
        agg, wan, universe = aggregator
        out = agg.aggregate_hour(0, [record(universe, wan, dest=3)])
        rec = out[0]
        dest = wan.dest_prefix(3)
        assert agg.encoders.region.decode(rec.dest_region) == dest.region
        assert agg.encoders.service.decode(rec.dest_service) == dest.service
        prefix = universe.prefix(0)
        assert agg.encoders.location.decode(rec.src_loc) == prefix.metro

    def test_unknown_location_marked(self, aggregator):
        agg, wan, _universe = aggregator
        rogue = IpfixRecord(0, 0, 10**9, 4242, 0, 1e6)
        out = agg.aggregate_hour(0, [rogue])
        assert out[0].src_loc == UNKNOWN_LOCATION

    def test_hour_mismatch_rejected(self, aggregator):
        agg, wan, universe = aggregator
        with pytest.raises(ValueError):
            agg.aggregate_hour(1, [record(universe, wan, hour=0)])

    def test_compression_stats(self, aggregator):
        agg, wan, universe = aggregator
        records = [record(universe, wan) for _ in range(10)]
        agg.aggregate_hour(0, records)
        assert agg.stats.records_in == 10
        assert agg.stats.records_out == 1
        assert agg.stats.ratio == pytest.approx(0.1)

    def test_empty_hour(self, aggregator):
        agg, _wan, _universe = aggregator
        assert agg.aggregate_hour(5, []) == []
        assert agg.stats.ratio == 1.0

    def test_context_property(self, aggregator):
        agg, wan, universe = aggregator
        out = agg.aggregate_hour(0, [record(universe, wan)])
        rec = out[0]
        ctx = rec.context
        assert ctx.src_asn == rec.src_asn
        assert ctx.src_prefix == rec.src_prefix
        assert ctx.src_loc == rec.src_loc


class TestCorruptTelemetry:
    """Failure injection: records a collector should never emit."""

    def test_strict_raises_on_unknown_destination(self, aggregator):
        agg, wan, universe = aggregator
        bad = IpfixRecord(0, 0, universe.prefix(0).prefix_id,
                          universe.prefix(0).asn, 10**9, 1e6)
        with pytest.raises(ValueError, match="cannot aggregate"):
            agg.aggregate_hour(0, [bad])

    def test_strict_raises_on_nonpositive_bytes(self, aggregator):
        agg, wan, universe = aggregator
        bad = record(universe, wan, bytes_=-5.0)
        with pytest.raises(ValueError, match="non-positive"):
            agg.aggregate_hour(0, [bad])

    def test_lenient_drops_and_counts(self, aggregator):
        agg, wan, universe = aggregator
        agg.strict = False
        good = record(universe, wan)
        bad_dest = IpfixRecord(0, 0, universe.prefix(0).prefix_id,
                               universe.prefix(0).asn, 10**9, 1e6)
        bad_bytes = record(universe, wan, bytes_=0.0)
        out = agg.aggregate_hour(0, [good, bad_dest, bad_bytes])
        assert len(out) == 1
        assert out[0].bytes == pytest.approx(1e6)
        assert agg.stats.records_dropped == 2
        assert agg.stats.records_in == 3

    def test_lenient_hour_mismatch_still_raises(self, aggregator):
        # hour chunking is a pipeline invariant, not telemetry noise
        agg, wan, universe = aggregator
        agg.strict = False
        with pytest.raises(ValueError, match="chunk"):
            agg.aggregate_hour(1, [record(universe, wan, hour=0)])


def columns_of(records):
    """A record list as the aligned columns `aggregate_hour_columns` takes."""
    def column(field, dtype=np.int64):
        return np.array([getattr(r, field) for r in records], dtype=dtype)
    return dict(link_ids=column("link_id"),
                src_prefix_ids=column("src_prefix_id"),
                src_asns=column("src_asn"),
                dest_prefix_ids=column("dest_prefix_id"),
                bytes_=column("bytes", np.float64),
                hours=column("hour"))


def aggregate_counters():
    return {name: value for name, value in obs.snapshot().counters.items()
            if name.startswith("pipeline.aggregate.")}


class TestBatchAggregation:
    """The vectorised path must match the per-record walk exactly."""

    def _mixed_records(self, universe, wan):
        return (
            [record(universe, wan, link=l, prefix_idx=p, dest=d,
                    bytes_=1e5 * (1 + l + p + d))
             for l in range(2) for p in range(5) for d in range(4)]
            + [record(universe, wan, bytes_=1e5)] * 3
            + [IpfixRecord(0, 1, 10**9, 4242, 2, 5e5)]  # unknown location
        )

    def test_batch_matches_serial(self, aggregator):
        agg, wan, universe = aggregator
        records = self._mixed_records(universe, wan)
        batch_agg = HourlyAggregator(agg.metadata)
        try:
            # obs on: both paths must report the same hours, the empty
            # one included
            obs.enable(fresh=True)
            assert agg.aggregate_hour(0, []) == []
            serial = agg.aggregate_hour(0, list(records))
            serial_counters = aggregate_counters()
            obs.enable(fresh=True)
            assert batch_agg.aggregate_hour_columns(
                0, **columns_of([])).to_records() == []
            batch = batch_agg.aggregate_hour_columns(
                0, **columns_of(records)).to_records()
            batch_counters = aggregate_counters()
        finally:
            obs.reset()
        assert batch == serial  # same records, same order
        assert batch_agg.stats == agg.stats
        assert batch_counters == serial_counters
        assert serial_counters["pipeline.aggregate.hours"] == 2
        # encoder code assignments must also match (first-seen order)
        assert batch_agg.encoders.region.decode(batch[0].dest_region) == \
            agg.encoders.region.decode(serial[0].dest_region)

    def test_columns_to_records_round_trip(self, aggregator):
        agg, wan, universe = aggregator
        records = self._mixed_records(universe, wan)
        serial = agg.aggregate_hour(0, list(records))
        columns_agg = HourlyAggregator(agg.metadata)
        columns_agg.aggregate_hour_columns(
            0, **columns_of([]))  # empty hour is fine
        batch = columns_agg.aggregate_hour_columns(
            0, **columns_of(records)).to_records()
        assert [r.context for r in batch] == [r.context for r in serial]
        assert all(isinstance(r.bytes, float) for r in batch)

    def test_batch_strict_raises_same_error(self, aggregator):
        agg, wan, universe = aggregator
        bad_dest = IpfixRecord(0, 0, universe.prefix(0).prefix_id,
                               universe.prefix(0).asn, 10**9, 1e6)
        bad_bytes = record(universe, wan, bytes_=-5.0)
        for bad, pattern in ((bad_dest, "cannot aggregate"),
                             (bad_bytes, "non-positive")):
            records = [record(universe, wan), bad, record(universe, wan)]
            serial_agg = HourlyAggregator(agg.metadata)
            with pytest.raises(ValueError) as serial_exc:
                serial_agg.aggregate_hour(0, list(records))
            batch_agg = HourlyAggregator(agg.metadata)
            with pytest.raises(ValueError, match=pattern) as batch_exc:
                batch_agg.aggregate_hour_columns(0, **columns_of(records))
            assert str(batch_exc.value) == str(serial_exc.value)

    @pytest.mark.parametrize("failure", ["unknown destination",
                                         "non-positive bytes"])
    def test_a_strict_failure_leaves_the_record_paths_encoders(self,
                                                               failure):
        """Past the same strict-mode error the two paths hold the same
        encoders, codes in the same order: what the record walk encoded
        before the bad row, the columns encode too (the location
        encoder used to stay empty), so the paths stay interchangeable
        mid-stream."""
        from repro.experiments import Scenario, ScenarioParams
        from repro.pipeline.encoding import EncoderSet

        sc = Scenario(ScenarioParams.small(seed=3))
        links, sources, asns, dests, bytes_ = sc.ipfix_columns_for(
            next(iter(sc.stream(0, 1))))
        row = len(bytes_) // 2
        if failure == "unknown destination":
            dests = dests.copy()
            dests[row] = 10**9
        else:
            bytes_ = bytes_.copy()
            bytes_[row] = 0.0
        records = [IpfixRecord(0, *fields) for fields in zip(
            links.tolist(), sources.tolist(), asns.tolist(), dests.tolist(),
            bytes_.tolist())]
        serial, batch = (HourlyAggregator(sc.metadata, encoders=EncoderSet())
                         for _ in range(2))
        with pytest.raises(ValueError) as serial_exc:
            serial.aggregate_hour(0, records)
        with pytest.raises(ValueError) as batch_exc:
            batch.aggregate_hour_columns(0, links, sources, asns, dests,
                                         bytes_)
        assert str(batch_exc.value) == str(serial_exc.value)
        for name in ("location", "region", "service"):
            mine = getattr(batch.encoders, name).values()
            assert mine == getattr(serial.encoders, name).values(), name
        assert len(batch.encoders.location) > 0

    def test_batch_lenient_drops_and_counts(self, aggregator):
        agg, wan, universe = aggregator
        agg.strict = False
        good = record(universe, wan)
        bad_dest = IpfixRecord(0, 0, universe.prefix(0).prefix_id,
                               universe.prefix(0).asn, 10**9, 1e6)
        bad_bytes = record(universe, wan, bytes_=0.0)
        out = agg.aggregate_hour_columns(
            0, **columns_of([good, bad_dest, bad_bytes, good])).to_records()
        assert len(out) == 1
        assert out[0].bytes == pytest.approx(2e6)
        assert agg.stats.records_dropped == 2
        assert agg.stats.records_in == 4
        assert agg.stats.records_out == 1

    def test_batch_hour_mismatch_rejected(self, aggregator):
        agg, wan, universe = aggregator
        agg.strict = False  # hour chunking violations raise regardless
        with pytest.raises(ValueError, match="chunk"):
            agg.aggregate_hour_columns(
                1, **columns_of([record(universe, wan, hour=0)]))

    def test_ratio_with_zero_input(self):
        from repro.pipeline import CompressionStats
        stats = CompressionStats()
        assert stats.records_in == 0
        assert stats.ratio == 1.0  # no input: nothing was compressed


class SpyMetadata(MetadataStore):
    """A ``MetadataStore`` that logs every join it is asked for."""

    def __init__(self, wan, geoip):
        super().__init__(wan, geoip)
        self.calls = []

    def destination_features(self, dest_prefix_id):
        self.calls.append(("dest", dest_prefix_id))
        return super().destination_features(dest_prefix_id)

    def source_location(self, src_prefix_id):
        self.calls.append(("src", src_prefix_id))
        return super().source_location(src_prefix_id)


class TestCountedJoinWork:
    """The columnar path joins by table look-up: a prefix is walked
    through the dict-cached join (and the metadata store, and an
    encoder) in the hour it first appears and never again."""

    @pytest.fixture()
    def spied(self, aggregator, monkeypatch):
        agg, wan, universe = aggregator
        agg = HourlyAggregator(SpyMetadata(wan, agg.metadata.geoip))
        walks, encodes = [], []
        for name in ("_dest_features", "_location"):
            def walk(prefix_id, name=name, inner=getattr(agg, name)):
                walks.append((name, prefix_id))
                return inner(prefix_id)
            monkeypatch.setattr(agg, name, walk)
        encode = OrdinalEncoder.encode
        monkeypatch.setattr(
            OrdinalEncoder, "encode",
            lambda self, value: encodes.append(value) or encode(self, value))
        return agg, wan, universe, walks, encodes

    def test_an_hour_of_joined_prefixes_walks_nothing(self, spied):
        agg, wan, universe, walks, encodes = spied
        records = [record(universe, wan, link=l, prefix_idx=p, dest=d)
                   for l in range(2) for p in range(5) for d in range(4)]
        agg.aggregate_hour_columns(0, **columns_of(records))
        assert len(walks) == 5 + 4
        del walks[:], encodes[:], agg.metadata.calls[:]
        later = [record(universe, wan, hour=1, link=1, prefix_idx=p, dest=d)
                 for p in (4, 0, 2) for d in (3, 1)]
        out = agg.aggregate_hour_columns(1, **columns_of(later))
        assert walks == []
        assert agg.metadata.calls == [] and encodes == []
        assert out.n_records == 6

    def test_a_new_prefix_is_looked_up_once_in_its_hour(self, spied):
        agg, wan, universe, walks, _encodes = spied
        late_src = universe.prefix(7).prefix_id
        for hour, prefixes, dests in ((0, (0, 1), (0,)),
                                      (1, (1, 7, 0, 7), (0, 5, 5)),
                                      (2, (7, 0), (5, 0))):
            del walks[:], agg.metadata.calls[:]
            agg.aggregate_hour_columns(hour, **columns_of([
                record(universe, wan, hour=hour, prefix_idx=p, dest=d)
                for p in prefixes for d in dests]))
            if hour == 1:
                assert agg.metadata.calls == [("dest", 5), ("src", late_src)]
                assert walks == [("_dest_features", 5),
                                 ("_location", late_src)]
            elif hour == 2:
                assert agg.metadata.calls == [] and walks == []

    def test_record_path_joins_fill_the_table_without_a_lookup(self, spied):
        agg, wan, universe, walks, _encodes = spied
        agg.aggregate_hour(0, [record(universe, wan, prefix_idx=3, dest=2)])
        del agg.metadata.calls[:]
        agg.aggregate_hour_columns(1, **columns_of(
            [record(universe, wan, hour=1, prefix_idx=3, dest=2)]))
        assert agg.metadata.calls == []      # the dict caches answered
        del walks[:]
        agg.aggregate_hour_columns(2, **columns_of(
            [record(universe, wan, hour=2, prefix_idx=3, dest=2)]))
        assert walks == []

    def test_lenient_unknown_destination_dropped_every_hour(self, spied):
        agg, wan, universe, _walks, _encodes = spied
        agg.strict = False
        rogue_src = universe.prefix(9)
        for hour in range(3):
            rows = [record(universe, wan, hour=hour),
                    IpfixRecord(hour, 0, rogue_src.prefix_id, rogue_src.asn,
                                10**9, 1e6),
                    record(universe, wan, hour=hour, link=1)]
            out = agg.aggregate_hour_columns(hour, **columns_of(rows))
            assert out.n_records == 2
            assert agg.stats.records_dropped == hour + 1
        # a dropped row's source prefix is never joined
        assert ("src", rogue_src.prefix_id) not in agg.metadata.calls

    def test_a_source_outside_the_store_needs_no_room(self, spied):
        agg, wan, universe, walks, _encodes = spied
        _dest_ids, src_ids = agg.metadata.id_ranges()
        prefix = universe.prefix(0)
        rows = [IpfixRecord(0, 0, 2 ** 40, prefix.asn, 0, 1e6),
                IpfixRecord(0, 0, -1, prefix.asn, 0, 1e6),
                record(universe, wan)]
        out = agg.aggregate_hour_columns(0, **columns_of(rows))
        # the ids outside the range share the one spare slot: the first
        # is walked, the other reads what it joined to
        assert [w for w in walks if w[0] == "_location"] == [
            ("_location", 2 ** 40), ("_location", prefix.prefix_id)]
        assert out.src_locs.tolist() == [UNKNOWN_LOCATION, UNKNOWN_LOCATION,
                                         agg._location(prefix.prefix_id)]
        # the array spans only the ids the store can know, plus that slot
        assert [len(column) for column in agg._loc_join.codes] == [
            len(src_ids) + 1]
        assert len(src_ids) == len(universe)


class TestRowGrouping:
    """``first_seen_groups`` and ``sorted_rows`` against plain Python."""

    @pytest.mark.parametrize("scale", [1, 2 ** 40])
    def test_sorted_rows_is_the_stable_lexsort(self, scale):
        # at 2**40 three columns cannot share 62 bits of mixed radix, so
        # the codes are densified on the way
        rng = np.random.default_rng(5)
        columns = [rng.integers(-3, 4, size=500) * scale for _ in range(3)]
        assert (sorted_rows(columns).tolist()
                == np.lexsort(columns[::-1]).tolist())

    def test_first_seen_groups_numbers_keys_by_first_row(self):
        columns = [np.array([4, 2, 4, 9, 2]), np.array([0, 1, 0, 0, 1])]
        rep, group = first_seen_groups(columns)
        numbers = {}
        for key in zip(*(column.tolist() for column in columns)):
            numbers.setdefault(key, len(numbers))
        assert rep.tolist() == [0, 1, 3]
        assert group.tolist() == [numbers[key] for key in zip(
            *(column.tolist() for column in columns))] == [0, 1, 0, 2, 1]


class TestCountedSorts:
    """An aggregated hour and a day table's ``add_hour`` make no stable
    sort (the stable order is an unstable sort of codes made distinct by
    their row) and binary-search only ascending needles."""

    @pytest.fixture()
    def sorts(self, monkeypatch):
        """Each spied numpy call as ``(name, flagged)``: flagged if it
        sorts stably, or searches for needles out of order."""
        calls = []

        def spy(name, flags):
            real = getattr(np, name)

            def call(*args, **kwargs):
                calls.append((name, flags(*args, **kwargs)))
                return real(*args, **kwargs)
            monkeypatch.setattr(np, name, call)

        def stable(a, axis=-1, kind=None, order=None, *, stable=None):
            return kind in ("stable", "mergesort") or bool(stable)

        spy("argsort", stable)
        spy("sort", stable)
        spy("lexsort", lambda *args, **kwargs: True)
        # np.unique finds first rows with a stable argsort
        spy("unique", lambda ar, return_index=False, *args, **kwargs:
            return_index)
        spy("searchsorted", lambda a, v, *args, **kwargs:
            bool((np.diff(v) < 0).any()))
        return calls

    def test_an_hour_and_its_fold_sort_unstably(self, aggregator, sorts):
        agg, wan, universe = aggregator
        day = DayCounts()
        for hour, prefixes in ((0, range(8)), (1, range(4, 12))):
            # prefixes descending, each key twice: unsorted codes, and
            # rows for the group-by to sum
            records = [record(universe, wan, hour=hour, link=l,
                              prefix_idx=p, dest=d, bytes_=1e5 * (1 + p))
                       for p in prefixes[::-1] for d in (3, 0, 2)
                       for l in (1, 0)] * 2
            columns = agg.aggregate_hour_columns(hour, **columns_of(records))
            day.add_hour(columns)
        assert len(day) == 12 * 3 * 2
        assert [name for name, flagged in sorts if flagged] == []
        assert {"sort", "argsort", "searchsorted"} <= {
            name for name, _ in sorts}
