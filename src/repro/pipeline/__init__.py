"""Data pipeline: records, encoding, aggregation, outages, streaming.

Turns sampled telemetry into training rows: hourly aggregation to
(flow-aggregate, ingress link, bytes) with strict/lenient drop
accounting (per-record reference and a bit-identical vectorised
columnar path), ordinal feature encoding, and "no bytes = down" outage
inference.  A determinism-critical package: hot-path output is a pure
function of ``(seed, hour)``, wall-clock-free by lint rule RA201; the
observability hooks here report through the :mod:`repro.obs` facade
only.
"""

from .records import AggColumns, AggRecord, FlowContext, UNKNOWN_LOCATION
from .encoding import EncoderSet, OrdinalEncoder
from .aggregation import CompressionStats, HourlyAggregator
from .outages import (
    Outage,
    OutageInference,
    OutageParams,
    first_outage_days,
    last_outage_days_before,
    schedule_outages,
)
from .traces import counts_from_trace, read_trace, write_trace

__all__ = [
    "counts_from_trace", "read_trace", "write_trace",
    "AggColumns", "AggRecord", "FlowContext", "UNKNOWN_LOCATION",
    "EncoderSet", "OrdinalEncoder",
    "CompressionStats", "HourlyAggregator",
    "Outage", "OutageInference", "OutageParams",
    "first_outage_days", "last_outage_days_before", "schedule_outages",
]
