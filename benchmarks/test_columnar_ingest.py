"""Throughput of the columnar aggregation path.

The paper's production pipeline keeps up with TBs/day by fanning
aggregation out over a Spark cluster (§4.3); its models are one-pass
counting, so the reproduction aggregates an hour as numpy columns in one
process.  This benchmark measures that path at paper scale against the
per-record reference.
"""

import time

from repro.pipeline import HourlyAggregator

from repro.experiments.benchlib import print_block

#: timed runs of the columnar path; its minimum is compared
COLUMNAR_RUNS = 5


def _seconds(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_columnar_ingest_speedup(paper_scenario, benchmark):
    """One hour of IPFIX, stream->aggregate: columnar vs per-record."""
    cols = next(iter(paper_scenario.stream(12, 13)))
    agg = HourlyAggregator(paper_scenario.metadata,
                           encoders=paper_scenario.encoders)

    def ingest_columnar():
        arrays = paper_scenario.ipfix_columns_for(cols)
        return agg.aggregate_hour_columns(cols.hour, *arrays)

    ingest_columnar()  # warm the metadata join caches
    out = benchmark(ingest_columnar)
    # timed here rather than read off pytest-benchmark's stats, which
    # --benchmark-disable leaves empty
    columnar_s = min(_seconds(ingest_columnar) for _ in range(COLUMNAR_RUNS))

    # per-record reference path, timed once for the printed comparison
    t0 = time.perf_counter()
    records = paper_scenario.ipfix_records_for(cols)
    serial = agg.aggregate_hour(cols.hour, records)
    serial_s = time.perf_counter() - t0
    speedup = serial_s / columnar_s
    print_block(
        f"ingested {len(records)} IPFIX records -> {out.n_records} chunks; "
        f"columnar {columnar_s * 1e3:.1f}ms vs per-record "
        f"{serial_s * 1e3:.1f}ms ({speedup:.1f}x)")
    assert out.to_records() == serial  # fast path is bit-identical
    assert speedup >= 2.0
