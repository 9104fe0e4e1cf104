"""Per-layer metric names and how traced spans map onto them.

Every traced run reports every name in ``PER_LAYER`` — a layer that is
idle on a workload reports 0, which is the statement "this workload does
not exercise that layer" made checkable.  Times are *self* seconds of the
layer's spans under the workload's operation roots (``bench.*``), so on
the single-threaded workloads they add up to the measured wall.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.scenario import Scenario

from . import OUT_DIR
from .common import LADDER_QPS, Outcome, topology_build_s
from .tracing import LayerTrace, layer_seconds

#: span name -> (self-seconds metric, call-count metric or None)
SPAN_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "traffic.volumes": ("traffic.volumes_s", "traffic.volumes_calls"),
    "bgp.resolve": ("bgp.resolve_s", "bgp.resolve_calls"),
    "bgp.routing_table": ("bgp.routing_table_s", None),
    "telemetry.sample_bytes": ("telemetry.sample_bytes_s", None),
    "experiments.stream": ("experiments.stream_self_s", None),
    "experiments.traffic_entries": ("experiments.traffic_entries_s", None),
    "pipeline.aggregate": ("pipeline.aggregate_s", None),
    "pipeline.to_records": ("pipeline.to_records_s", None),
    "core.ingest": ("core.ingest_s", None),
    "core.retrain": ("core.retrain_s", None),
    "core.predict_batch": ("core.predict_batch_s", None),
    "core.what_if": ("core.what_if_s", None),
    "core.snapshot": ("core.snapshot_s", None),
    "core.restore": ("core.restore_s", None),
    "store.write": ("store.write_s", None),
    "store.read": ("store.read_s", None),
    "serve.ingest_hour": ("serve.ingest_hour_s", None),
    "serve.predict_batch": ("serve.predict_batch_s", None),
    "serve.what_if": ("serve.what_if_s", None),
    "serve.checkpoint": ("serve.checkpoint_s", "serve.checkpoint_count"),
    "serve.drain": ("serve.drain_s", None),
    "serve.resume": ("serve.resume_s", None),
    "cms.handle_sample": ("cms.handle_sample_s", "cms.samples"),
}

#: metrics that come from counters, comparisons or the harness itself
_OTHER: Tuple[str, ...] = (
    "topology.build_s",
    "bgp.table_misses", "bgp.incremental_updates", "bgp.full_rebuilds",
    "bgp.share_hit_ratio",
    "telemetry.flow_records",
    "pipeline.records_in", "pipeline.records_out", "pipeline.records_dropped",
    "core.retrain_count", "core.retrain_p50_ms", "core.predictions",
    "core.memo_hit_ratio", "core.what_if_flows", "core.restart_s",
    "store.write_bytes", "store.read_bytes", "store.segments_degraded",
    "serve.hop_p50_ms", "serve.scatter_gather_p50_ms", "serve.ipc_p50_ms",
    "serve.payload_bytes_per_query", "serve.pickle_ms_per_query",
    "serve.restart_s", "serve.query_p50_ms", "serve.what_if_p50_ms",
    "serve.front_cpu_ms_per_query", "serve.worker_cpu_ms_per_query",
    "serve.swaps", "serve.max_staleness_hours",
    "serve.ingest_backlog_max",
    "serve.ingest_stall_p50_ms", "serve.slo_miss_frac",
    "serve.query_p99_ms", "serve.closed_loop_predictions_per_s",
    *(f"serve.p99_ms_at_{rate}qps" for rate in LADDER_QPS),
    "serve.slo_rate_qps",
    "cms.actions", "cms.safe_ratio",
    "obs.overhead_frac",
    "bench.trace_overhead_frac", "bench.untraced_share",
    "bench.gen_lateness_p99_ms", "bench.input_load_s", "bench.cpu_s",
    "bench.speed_factor",
)


def _names() -> List[str]:
    names: List[str] = []
    for seconds, calls in SPAN_METRICS.values():
        names.append(seconds)
        if calls is not None:
            names.append(calls)
    names.extend(_OTHER)
    return names


#: every per-layer metric a traced run reports, in report order
PER_LAYER: Tuple[str, ...] = tuple(_names())


#: traced-pass rule: layer self times + harness share must add up to the
#: measured wall within this share
ACCOUNTING_TOLERANCE = 0.03


def account_for_wall(out: Outcome, totals: Dict[str, List[float]],
                     wall: float, scenario: Scenario) -> None:
    """The single-threaded workloads' rule: the traced self times (layers
    plus harness) must equal the traced ``wall`` within
    ``ACCOUNTING_TOLERANCE``, or the run fails.  Then fills the per-layer
    times and ``bench.untraced_share``."""
    layers, harness = layer_seconds(totals)
    gap = abs(layers + harness - wall) / wall
    out.attempted += 1
    if gap > ACCOUNTING_TOLERANCE:
        out.fail(f"layer self times + harness = {layers + harness:.3f}s but "
                 f"the traced wall is {wall:.3f}s ({gap:.1%} apart)")
    fill_from_totals(out, totals, scenario)
    out.per_layer["bench.untraced_share"] = harness / wall


def fill_from_totals(out: Outcome, totals: Dict[str, List[float]],
                     scenario: Scenario) -> None:
    """Start ``out.per_layer`` at 0 for every name, then add the traced
    self seconds and call counts (and the topology build time)."""
    for name in PER_LAYER:
        out.per_layer.setdefault(name, 0.0)
    out.per_layer["topology.build_s"] = topology_build_s(scenario)
    for span, (seconds, calls) in SPAN_METRICS.items():
        count, self_seconds = totals.get(span, (0.0, 0.0))
        out.per_layer[seconds] = self_seconds
        if calls is not None:
            out.per_layer[calls] = count


def write_trace(out: Outcome, trace: LayerTrace) -> None:
    """Write ``trace-<workload>.json`` under ``benchmarks/e2e/out``."""
    trace.write(OUT_DIR / f"trace-{out.workload}.json", {
        "workload": out.workload, "seed": out.seed,
        "quick": out.quick, "params": out.params,
    })
