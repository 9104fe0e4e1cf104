"""The process-wide observability switch and instrument facade.

Instrumentation is compiled into the hot paths permanently but costs
nearly nothing until someone turns it on: every facade function starts
with a check of one module-level boolean, and the disabled branches
return immediately (``span`` hands back a shared no-op context
manager, ``count``/``observe``/``gauge_set`` return without touching
the registry).  ``repro obs`` and tests call :func:`enable`; library
code never does.

One registry and one tracer per process.  The shard workers of
``repro.serve`` each enable their own fresh state (see
``repro.serve.worker.shard_worker_main``) and ship snapshot deltas back
to the daemon, which merges them — so a process-mode run's counters
read the same as a thread-mode run's.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, ContextManager, Iterator, Mapping, Optional, Sequence

from .metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry, MetricsSnapshot
from .spans import NOOP_SPAN, Tracer

__all__ = [
    "enabled", "enable", "disable", "reset",
    "registry", "tracer", "snapshot",
    "span", "timed", "count", "observe", "gauge_set", "set_gauges",
]

_ENABLED = False
_REGISTRY = MetricsRegistry()
_TRACER = Tracer()


def enabled() -> bool:
    """Whether instrumentation is live in this process."""
    return _ENABLED


def enable(clock: Optional[Callable[[], float]] = None,
           fresh: bool = False) -> MetricsRegistry:
    """Turn instrumentation on; returns the live registry.

    ``clock`` injects a deterministic tick source into the tracer (for
    tests); ``fresh=True`` discards any previously accumulated state
    first (a forked shard worker inherits the parent's registry
    copy-on-write and must not double-report it).
    """
    global _ENABLED, _REGISTRY, _TRACER
    if fresh or clock is not None:
        _REGISTRY = MetricsRegistry()
        _TRACER = Tracer(clock=clock)
    _ENABLED = True
    return _REGISTRY


def disable() -> None:
    """Turn instrumentation off (accumulated state is kept)."""
    global _ENABLED
    _ENABLED = False


def reset() -> None:
    """Disable and discard all accumulated metrics and spans."""
    global _ENABLED, _REGISTRY, _TRACER
    _ENABLED = False
    _REGISTRY = MetricsRegistry()
    _TRACER = Tracer()


def registry() -> MetricsRegistry:
    """The process-wide registry (live regardless of the switch)."""
    return _REGISTRY


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def span(name: str) -> ContextManager[object]:
    """A named trace span — the shared no-op when disabled."""
    if not _ENABLED:
        return NOOP_SPAN
    return _TRACER.span(name)


@contextmanager
def _timed(name: str) -> Iterator[None]:
    clock = _TRACER._clock
    start = clock()
    try:
        with _TRACER.span(name):
            yield
    finally:
        _REGISTRY.histogram(name + ".seconds").observe(clock() - start)


def timed(name: str) -> ContextManager[object]:
    """A span that also feeds the ``<name>.seconds`` histogram."""
    if not _ENABLED:
        return NOOP_SPAN
    return _timed(name)


def count(name: str, amount: float = 1.0) -> None:
    """Increment a counter (no-op when disabled)."""
    if _ENABLED:
        _REGISTRY.counter(name).inc(amount)


def observe(name: str, value: float,
            buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
    """Observe a histogram value (no-op when disabled)."""
    if _ENABLED:
        _REGISTRY.histogram(name, buckets=buckets).observe(value)


def gauge_set(name: str, value: float) -> None:
    """Set a gauge (no-op when disabled)."""
    if _ENABLED:
        _REGISTRY.gauge(name).set(value)


def set_gauges(values: Mapping[str, float], prefix: str = "") -> None:
    """Bulk-export a stats dict as gauges (no-op when disabled)."""
    if _ENABLED:
        _REGISTRY.set_gauges(values, prefix=prefix)


def snapshot() -> MetricsSnapshot:
    """Convenience: the current registry's snapshot."""
    return _REGISTRY.snapshot()
