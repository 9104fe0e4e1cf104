"""Tests for flow-trace export/import."""

import pytest

from repro.pipeline import (HourlyAggregator, counts_from_trace,
                            read_trace, write_trace)
from repro.telemetry import GeoIPDatabase, IpfixRecord, MetadataStore
from repro.topology import (
    MetroCatalog,
    TopologyParams,
    WANParams,
    generate_as_graph,
    generate_wan,
)
from repro.traffic import PrefixUniverse
from tests.core.counts_oracle import CountsAccumulator


@pytest.fixture(scope="module")
def world():
    metros = MetroCatalog()
    graph = generate_as_graph(metros, TopologyParams(
        n_tier1=3, n_transit=6, n_access=10, n_cdn=2, n_stub=20), seed=12)
    wan = generate_wan(graph, WANParams(n_regions=4, n_dest_prefixes=12),
                       seed=12)
    universe = PrefixUniverse(graph, seed=12)
    geoip = GeoIPDatabase(universe, metros, error_rate=0.0, seed=12)
    return wan, universe, MetadataStore(wan, geoip)


def records(universe, n=20, hour=0):
    out = []
    for i in range(n):
        prefix = universe.prefix(i % len(universe._prefixes))
        out.append(IpfixRecord(hour + i % 3, i % 4, prefix.prefix_id,
                               prefix.asn, i % 5, 1000.0 * (i + 1)))
    return out


class TestRoundtrip:
    def test_write_read_roundtrip(self, world, tmp_path):
        _wan, universe, _meta = world
        original = records(universe)
        path = tmp_path / "trace.csv"
        count = write_trace(path, original)
        assert count == len(original)
        loaded = list(read_trace(path))
        assert loaded == original

    def test_empty_trace(self, world, tmp_path):
        path = tmp_path / "empty.csv"
        write_trace(path, [])
        assert list(read_trace(path)) == []

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(ValueError, match="not a flow trace"):
            list(read_trace(path))

    def test_malformed_row_rejected(self, world, tmp_path):
        _wan, universe, _meta = world
        path = tmp_path / "trace.csv"
        write_trace(path, records(universe, n=2))
        with open(path, "a") as handle:
            handle.write("1,2,3\n")
        with pytest.raises(ValueError, match="line 4"):
            list(read_trace(path))

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "hour,link_id,src_prefix_id,src_asn,dest_prefix_id,bytes\n"
            "1,2,3,4,5,lots\n")
        with pytest.raises(ValueError, match="line 2"):
            list(read_trace(path))


class TestTraining:
    def test_counts_from_trace(self, world, tmp_path):
        _wan, universe, meta = world
        path = tmp_path / "trace.csv"
        original = records(universe, n=30)
        write_trace(path, original)
        counts = counts_from_trace(path, meta)
        assert counts.to_arrays()["value"].sum() == pytest.approx(
            sum(r.bytes for r in original))
        assert len(counts) > 0

    def test_window_filter(self, world, tmp_path):
        _wan, universe, meta = world
        path = tmp_path / "trace.csv"
        original = records(universe, n=30)
        write_trace(path, original)
        counts = counts_from_trace(path, meta, start_hour=1, end_hour=2)
        expected = sum(r.bytes for r in original if r.hour == 1)
        assert counts.to_arrays()["value"].sum() == pytest.approx(expected)

    def test_equals_the_record_path(self, world, tmp_path):
        """Columns aggregated and folded hour by hour are the record
        walk (``aggregate_hour`` -> ``consume_hour``) to the bit, rows in
        the same order; an hour recurs out of order in the file."""
        _wan, universe, meta = world
        path = tmp_path / "trace.csv"
        original = records(universe, n=30)
        write_trace(path, original[10:] + original[:10])
        reference = CountsAccumulator()
        aggregator = HourlyAggregator(meta)
        for hour in (0, 1, 2):
            reference.consume_hour(hour, aggregator.aggregate_hour(
                hour, [r for r in original[10:] + original[:10]
                       if r.hour == hour]))
        got = counts_from_trace(path, meta).to_arrays()
        want = reference.to_arrays()
        assert list(got) == list(want)
        assert all(got[name].tobytes() == want[name].tobytes()
                   for name in want)

    def test_trained_model_predicts(self, world, tmp_path):
        from repro.core import FEATURES_AP, HistoricalModel

        _wan, universe, meta = world
        path = tmp_path / "trace.csv"
        write_trace(path, records(universe, n=30))
        counts = counts_from_trace(path, meta)
        model = HistoricalModel.from_arrays(counts.project(FEATURES_AP),
                                            FEATURES_AP)
        context, _link, _bytes = next(counts.rows())
        assert model.predict(context, 3)

    def test_shared_aggregator_keeps_encodings(self, world, tmp_path):
        _wan, universe, meta = world
        aggregator = HourlyAggregator(meta)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(p1, records(universe, n=10))
        write_trace(p2, records(universe, n=10))
        c1 = counts_from_trace(p1, meta, aggregator=aggregator)
        c2 = counts_from_trace(p2, meta, aggregator=aggregator)
        # identical traces through one aggregator yield identical keys
        assert ({(context, link) for context, link, _ in c1.rows()}
                == {(context, link) for context, link, _ in c2.rows()})
