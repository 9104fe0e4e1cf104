"""Tests for hourly aggregation and metadata joins."""

import numpy as np
import pytest

from repro.obs import runtime as obs
from repro.pipeline import HourlyAggregator, UNKNOWN_LOCATION
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
