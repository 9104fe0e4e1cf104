"""Observability layer: metrics, trace spans, and export surfaces.

Production forecasting systems treat measurement as a first-class
subsystem — TIPSY retrains daily and answers what-if queries against
thousands of peering links, and an operator needs to see retrain
latency, memo hit rates and pipeline stage timings *while it runs*, not
just in offline benchmark runs.  This package is that subsystem for the
reproduction, built to the same constraints as the rest of the tree:
zero dependencies beyond the runtime, deterministic-safe, and
essentially free when switched off.

The pieces:

* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms behind a lock-protected :class:`MetricsRegistry`, with
  picklable :class:`MetricsSnapshot` values that merge across process
  boundaries (pool workers report their shard's activity back to the
  parent);
* :mod:`repro.obs.spans` — nested wall-clock :func:`span` timings with
  an injectable clock (the RA201 lint rule bans clock reads inside the
  hot packages; the clock lives here, outside them) collected into a
  per-run trace tree;
* :mod:`repro.obs.runtime` — the process-wide ``enabled()`` switch and
  the cheap facade (``span``/``timed``/``count``/``gauge_set``) the
  instrumented hot paths call;
* :mod:`repro.obs.export` — text, JSON and Prometheus renderings of a
  snapshot, surfaced by ``repro obs``.

Instrumentation is **off by default**: every facade call short-circuits
on one module-level boolean, so the serving and pipeline hot paths pay
a single branch when nobody is watching (the overhead guarantee is
asserted by ``tests/obs/test_overhead.py``).  Nothing here perturbs
determinism — metrics only *read* the computation, and timing flows
through the injectable clock.  Conventions, formats and how to add a
new instrument are documented in ``docs/observability.md``.
"""

from .export import (FORMATS, prometheus_name, render_json,
                     render_prometheus, render_text)
from .metrics import (DEFAULT_TIME_BUCKETS, Counter, Gauge, Histogram,
                      HistogramData, MetricsRegistry, MetricsSnapshot)
from .runtime import (count, disable, enable, enabled, gauge_set, observe,
                      registry, reset, set_gauges, snapshot, span, timed,
                      tracer)
from .spans import NOOP_SPAN, Span, Tracer

__all__ = [
    "FORMATS", "prometheus_name",
    "render_json", "render_prometheus", "render_text",
    "DEFAULT_TIME_BUCKETS", "Counter", "Gauge", "Histogram",
    "HistogramData", "MetricsRegistry", "MetricsSnapshot",
    "count", "disable", "enable", "enabled", "gauge_set", "observe",
    "registry", "reset", "set_gauges", "snapshot", "span", "timed",
    "tracer",
    "NOOP_SPAN", "Span", "Tracer",
]
