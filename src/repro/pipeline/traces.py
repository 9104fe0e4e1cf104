"""Flow-trace files: export and import IPFIX-style records.

The synthetic world is a stand-in for real telemetry; a downstream
operator would feed TIPSY their own flow export.  This module defines a
plain CSV trace format round-trippable with :class:`IpfixRecord`, plus
a loader that replays a trace through the aggregation pipeline into
training counts — the complete "bring your own data" path:

    write_trace("week.csv", records)
    counts = counts_from_trace("week.csv", metadata)
    hist_ap = HistoricalModel.from_arrays(counts.project(FEATURES_AP),
                                          FEATURES_AP)

Format: a header line then one record per line,
``hour,link_id,src_prefix_id,src_asn,dest_prefix_id,bytes``.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List,
                    Optional, Union)

import numpy as np

from ..telemetry.ipfix import IpfixRecord
from ..telemetry.metadata import MetadataStore
from .aggregation import HourlyAggregator

if TYPE_CHECKING:
    from ..core.training import DayCounts

FIELDS = ("hour", "link_id", "src_prefix_id", "src_asn",
          "dest_prefix_id", "bytes")


def write_trace(path: Union[str, Path],
                records: Iterable[IpfixRecord]) -> int:
    """Write records to a CSV trace; returns the record count."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(FIELDS)
        for record in records:
            writer.writerow((record.hour, record.link_id,
                             record.src_prefix_id, record.src_asn,
                             record.dest_prefix_id, record.bytes))
            count += 1
    return count


def read_trace(path: Union[str, Path]) -> Iterator[IpfixRecord]:
    """Stream records back from a CSV trace.

    Raises ``ValueError`` on a malformed header or row so silent data
    corruption cannot flow into training.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(FIELDS):
            raise ValueError(f"not a flow trace: header {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(FIELDS):
                raise ValueError(f"malformed trace row at line {line_no}")
            try:
                yield IpfixRecord(
                    hour=int(row[0]), link_id=int(row[1]),
                    src_prefix_id=int(row[2]), src_asn=int(row[3]),
                    dest_prefix_id=int(row[4]), bytes=float(row[5]))
            except ValueError as exc:
                raise ValueError(
                    f"malformed trace row at line {line_no}: {exc}") from exc


def counts_from_trace(
    path: Union[str, Path],
    metadata: MetadataStore,
    aggregator: Optional[HourlyAggregator] = None,
    start_hour: Optional[int] = None,
    end_hour: Optional[int] = None,
) -> "DayCounts":
    """Replay a trace through aggregation into training counts: each
    hour's records aggregated as columns and folded into one table.

    Args:
        path: trace file.
        metadata: destination/Geo-IP joins for the trace's network.
        aggregator: reuse an aggregator (and its encoders) so codes stay
            consistent across multiple traces; a fresh one by default.
        start_hour / end_hour: optional [start, end) window filter.

    Returns:
        Finest-grain counts ready for ``EvaluationRunner.build_models``
        or ``HistoricalModel.from_arrays(counts.project(fs), fs)``.
    """
    # lazy import: the layer map (RA601) points core -> pipeline, and
    # this convenience loader is the one spot pipeline needs core back
    from ..core.training import DayCounts

    aggregator = aggregator or HourlyAggregator(metadata)
    counts = DayCounts()
    by_hour: Dict[int, List[IpfixRecord]] = {}
    for record in read_trace(path):
        if start_hour is not None and record.hour < start_hour:
            continue
        if end_hour is not None and record.hour >= end_hour:
            continue
        by_hour.setdefault(record.hour, []).append(record)
    for hour in sorted(by_hour):
        records = by_hour[hour]
        # the fields after the hour are aggregate_hour_columns' columns
        counts.add_hour(aggregator.aggregate_hour_columns(hour, *(
            np.array([getattr(record, name) for record in records])
            for name in FIELDS[1:])))
    return counts
