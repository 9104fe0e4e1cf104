"""Operational costs of the pipeline (paper §4.2-§4.3).

The paper's pipeline aggregates TBs/day on Spark; training is a single
pass.  Here we measure the laptop-scale equivalents: telemetry
streaming rate, hourly aggregation (with its compression accounting),
and one-pass training of the full suite over three weeks of data.
"""


from repro.core import (
    FEATURES_A,
    FEATURES_AL,
    FEATURES_AP,
    HistoricalModel,
)
from repro.pipeline import HourlyAggregator
from repro.telemetry import MetadataStore

from repro.experiments.benchlib import print_block


def test_streaming_throughput(paper_scenario, benchmark):
    """Hours of telemetry generated per second (warm caches)."""
    # warm the simulator/expansion caches first
    for _ in paper_scenario.stream(0, 2):
        pass

    def stream_day():
        total = 0
        for cols in paper_scenario.stream(0, 24):
            total += len(cols.flow_rows)
        return total

    entries = benchmark(stream_day)
    print_block(f"streamed 24h of telemetry: {entries} (flow, link) "
                "entries per day")
    assert entries > 0


def test_aggregation_compression(paper_scenario, benchmark):
    """Record-level aggregation and its §4.2 compression accounting."""
    aggregator = HourlyAggregator(
        MetadataStore(paper_scenario.wan, paper_scenario.geoip))
    cols = next(iter(paper_scenario.stream(12, 13)))
    ipfix = paper_scenario.ipfix_records_for(cols)

    result = benchmark(aggregator.aggregate_hour, 12, ipfix)
    ratio = aggregator.stats.ratio
    print_block(f"aggregated {len(ipfix)} IPFIX records -> {len(result)} "
                f"chunks (ratio {ratio:.3f}; the paper's 2% applies to "
                "raw flow export, which the synthetic feed pre-merges)")
    assert 0.0 < ratio <= 1.0


def test_single_pass_training(paper_train_counts, benchmark):
    """Training the three historical models is one pass over counts."""
    def train_suite():
        return [HistoricalModel.from_arrays(paper_train_counts.project(fs), fs)
                for fs in (FEATURES_A, FEATURES_AP, FEATURES_AL)]

    models = benchmark.pedantic(train_suite, rounds=1, iterations=1)
    sizes = {m.name: m.size() for m in models}
    print_block(f"trained on {len(paper_train_counts)} (flow, link) "
                f"observations; model sizes: {sizes}")
    assert sizes["Hist_A"] <= sizes["Hist_AL"] <= sizes["Hist_AP"]
