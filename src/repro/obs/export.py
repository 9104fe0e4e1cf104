"""Snapshot rendering: human text, JSON, and Prometheus text format.

Three surfaces for the same :class:`~repro.obs.metrics.MetricsSnapshot`:

* ``render_text`` — aligned human-readable listing for terminals;
* ``render_json`` — one sorted-keys JSON document (CI artifacts);
* ``render_prometheus`` — the Prometheus exposition text format
  (``# TYPE`` lines, ``_bucket{le="..."}`` cumulative histograms), so a
  scrape endpoint or a push gateway can consume a run's metrics
  without this package growing a client dependency.

Metric names are dotted internally (``service.retrain.seconds``) and
mechanically translated for Prometheus (``repro_service_retrain_
seconds``); the translation is total and collision-free for names made
of ``[a-z0-9._]``, which the naming convention in
``docs/observability.md`` requires.
"""

from __future__ import annotations

import json
import math
import re
from typing import List

from .metrics import MetricsSnapshot

__all__ = ["prometheus_name", "render_text", "render_json",
           "render_prometheus", "FORMATS"]

#: formats the CLI surfaces accept
FORMATS = ("text", "json", "prometheus")

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """Translate a dotted metric name into a Prometheus-legal one."""
    candidate = "repro_" + _INVALID_CHARS.sub("_", name.replace(".", "_"))
    return candidate


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_text(snapshot: MetricsSnapshot) -> str:
    """Aligned human-readable listing, one line per series."""
    lines: List[str] = []
    if snapshot.counters:
        lines.append("counters:")
        for name in sorted(snapshot.counters):
            lines.append(f"  {name:<44s} "
                         f"{_format_value(snapshot.counters[name]):>14s}")
    if snapshot.gauges:
        lines.append("gauges:")
        for name in sorted(snapshot.gauges):
            lines.append(f"  {name:<44s} "
                         f"{_format_value(snapshot.gauges[name]):>14s}")
    if snapshot.histograms:
        lines.append("histograms:")
        for name in sorted(snapshot.histograms):
            data = snapshot.histograms[name]
            mean = data.total / data.count if data.count else 0.0
            lines.append(f"  {name:<44s} count={data.count} "
                         f"sum={data.total:.6f} mean={mean:.6f}")
    if not lines:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)


def render_json(snapshot: MetricsSnapshot, indent: int = 2) -> str:
    """One JSON document, keys sorted for stable diffs."""
    return json.dumps(snapshot.to_json(), indent=indent, sort_keys=True)


def render_prometheus(snapshot: MetricsSnapshot) -> str:
    """The Prometheus exposition text format.

    Histogram buckets are rendered cumulatively with ``le`` labels plus
    the ``+Inf`` bucket, ``_sum`` and ``_count``, as scrapers expect.
    """
    lines: List[str] = []
    for name in sorted(snapshot.counters):
        pname = prometheus_name(name)
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_format_value(snapshot.counters[name])}")
    for name in sorted(snapshot.gauges):
        pname = prometheus_name(name)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_format_value(snapshot.gauges[name])}")
    for name in sorted(snapshot.histograms):
        data = snapshot.histograms[name]
        pname = prometheus_name(name)
        lines.append(f"# TYPE {pname} histogram")
        cumulative = 0
        for bound, bucket_count in zip(data.buckets, data.counts):
            cumulative += bucket_count
            lines.append(
                f'{pname}_bucket{{le="{_format_value(bound)}"}} '
                f"{cumulative}")
        cumulative += data.counts[-1]
        lines.append(f'{pname}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{pname}_sum {_format_value(data.total)}")
        lines.append(f"{pname}_count {data.count}")
    return "\n".join(lines) + "\n"
