"""Counters, gauges, fixed-bucket histograms, and the registry.

The instruments are deliberately minimal — a name, a float, and (for
histograms) a fixed upper-bound bucket layout — because everything the
serving and pipeline layers need to report is either a monotonic count
(records aggregated, retrains performed), a point-in-time level (cache
occupancy), or a latency distribution (retrain seconds).  No labels: a
distinct name per series keeps the registry a flat dict, the export
formats trivial, and cross-process merging a plain key-wise sum.

Thread- and process-safety model:

* within a process, every mutation takes the owning registry's lock, so
  instruments may be shared across threads;
* across processes, nothing is shared — each worker owns a fresh
  registry and ships a :class:`MetricsSnapshot` (plain picklable data)
  back to the parent, which folds it in with
  :meth:`MetricsRegistry.merge`.  Counters and histograms sum; gauges
  take the incoming value (last merge wins).

Snapshots are immutable value objects; :meth:`MetricsSnapshot.diff`
subtracts an earlier snapshot so a worker that serves several shard
tasks can report exactly the activity of each one.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramData",
    "MetricsRegistry",
    "MetricsSnapshot",
]

#: default histogram layout for latencies in seconds: sub-millisecond
#: batched queries up through multi-second window rebuilds
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing float count."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc({amount}))")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time level that can move in either direction."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


@dataclass(frozen=True)
class HistogramData:
    """One histogram's state as plain data (picklable, mergeable).

    ``counts`` has one entry per upper bound in ``buckets`` plus a final
    overflow (+Inf) entry, cumulative in the Prometheus sense only at
    render time — stored here as per-bucket counts.
    """

    buckets: Tuple[float, ...]
    counts: Tuple[int, ...]
    total: float
    count: int

    def merge(self, other: "HistogramData") -> "HistogramData":
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot merge histograms with different bucket layouts: "
                f"{self.buckets} vs {other.buckets}")
        return HistogramData(
            buckets=self.buckets,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            total=self.total + other.total,
            count=self.count + other.count,
        )

    def diff(self, before: "HistogramData") -> "HistogramData":
        if self.buckets != before.buckets:
            raise ValueError("cannot diff histograms with different buckets")
        return HistogramData(
            buckets=self.buckets,
            counts=tuple(a - b for a, b in zip(self.counts, before.counts)),
            total=self.total - before.total,
            count=self.count - before.count,
        )


class Histogram:
    """Fixed-bucket distribution of observed values.

    Buckets are upper bounds (seconds, bytes, …) sorted ascending; an
    implicit +Inf bucket catches the overflow.  The layout is fixed at
    construction so snapshots from different processes merge key-wise.
    """

    __slots__ = ("name", "_lock", "_buckets", "_counts", "_total", "_count")

    def __init__(self, name: str, lock: threading.Lock,
                 buckets: Sequence[float] = DEFAULT_TIME_BUCKETS):
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError(
                f"histogram {name!r} buckets must be unique and ascending")
        self.name = name
        self._lock = lock
        self._buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self._buckets) + 1)
        self._total = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self._buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._total += value
            self._count += 1

    @property
    def buckets(self) -> Tuple[float, ...]:
        return self._buckets

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    def data(self) -> HistogramData:
        with self._lock:
            return HistogramData(self._buckets, tuple(self._counts),
                                 self._total, self._count)

    def merge_data(self, data: HistogramData) -> None:
        """Fold another process's counts for this series into ours."""
        if data.buckets != self._buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket layout "
                f"{data.buckets} does not match {self._buckets}")
        with self._lock:
            self._counts = [a + b for a, b in zip(self._counts, data.counts)]
            self._total += data.total
            self._count += data.count


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable, picklable copy of a registry's state.

    This is the unit of cross-process reporting: workers snapshot their
    local registry, optionally :meth:`diff` against a pre-task snapshot,
    and the parent folds the result in with
    :meth:`MetricsRegistry.merge`.
    """

    counters: Dict[str, float]
    gauges: Dict[str, float]
    histograms: Dict[str, HistogramData]

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    def diff(self, before: "MetricsSnapshot") -> "MetricsSnapshot":
        """The activity between ``before`` and this snapshot.

        Counters and histograms subtract; gauges keep their current
        value (a level has no meaningful delta).
        """
        counters = {}
        for name, value in self.counters.items():
            delta = value - before.counters.get(name, 0.0)
            if delta != 0.0:
                counters[name] = delta
        histograms = {}
        for name, data in self.histograms.items():
            prior = before.histograms.get(name)
            delta_h = data if prior is None else data.diff(prior)
            if delta_h.count:
                histograms[name] = delta_h
        return MetricsSnapshot(counters=counters, gauges=dict(self.gauges),
                               histograms=histograms)

    def to_json(self) -> Dict[str, object]:
        """A JSON-ready dict (sorted keys, plain types)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                name: {
                    "buckets": list(data.buckets),
                    "counts": list(data.counts),
                    "sum": data.total,
                    "count": data.count,
                }
                for name, data in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "MetricsSnapshot":
        counters = {str(k): float(v) for k, v in
                    dict(payload.get("counters", {})).items()}  # type: ignore[arg-type]
        gauges = {str(k): float(v) for k, v in
                  dict(payload.get("gauges", {})).items()}  # type: ignore[arg-type]
        histograms: Dict[str, HistogramData] = {}
        for name, raw in dict(payload.get("histograms", {})).items():  # type: ignore[arg-type]
            entry = dict(raw)
            histograms[str(name)] = HistogramData(
                buckets=tuple(float(b) for b in entry["buckets"]),
                counts=tuple(int(c) for c in entry["counts"]),
                total=float(entry["sum"]),
                count=int(entry["count"]),
            )
        return cls(counters=counters, gauges=gauges, histograms=histograms)


class MetricsRegistry:
    """Named instruments behind one lock, snapshotable and mergeable.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create by name, so
    instrument sites never need registration ceremony; asking for an
    existing name with a conflicting kind (or histogram layout) raises,
    because two call sites silently sharing a mistyped series is how
    dashboards lie.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_free_locked(self, name: str, kind: str) -> None:
        # callers hold self._lock (hence the _locked suffix)
        owners = {"counter": self._counters, "gauge": self._gauges,
                  "histogram": self._histograms}
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}")

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_free_locked(name, "counter")
                instrument = Counter(name, self._lock)
                self._counters[name] = instrument
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_free_locked(name, "gauge")
                instrument = Gauge(name, self._lock)
                self._gauges[name] = instrument
            return instrument

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS
                  ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_free_locked(name, "histogram")
                instrument = Histogram(name, self._lock, buckets)
                self._histograms[name] = instrument
            elif instrument.buckets != tuple(float(b) for b in buckets):
                raise ValueError(
                    f"histogram {name!r} already registered with buckets "
                    f"{instrument.buckets}")
            return instrument

    def set_gauges(self, values: Mapping[str, float],
                   prefix: str = "") -> None:
        """Bulk gauge export, e.g. a ``cache_stats()`` dict."""
        for key, value in values.items():
            self.gauge(prefix + key).set(float(value))

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            counters = {name: c._value for name, c in self._counters.items()}
            gauges = {name: g._value for name, g in self._gauges.items()}
            members = list(self._histograms.items())
        # Histogram.data() takes the lock itself; collect outside the
        # registry lock to avoid re-entry (threading.Lock is not re-entrant).
        histograms = {name: h.data() for name, h in members}
        return MetricsSnapshot(counters=counters, gauges=gauges,
                               histograms=histograms)

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot (e.g. a worker's delta) into this registry."""
        for name, value in sorted(snapshot.counters.items()):
            self.counter(name).inc(value)
        for name, value in sorted(snapshot.gauges.items()):
            self.gauge(name).set(value)
        for name, data in sorted(snapshot.histograms.items()):
            self.histogram(name, buckets=data.buckets).merge_data(data)
