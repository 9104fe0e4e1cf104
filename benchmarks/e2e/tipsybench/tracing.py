"""The traced pass: timing wrappers around each layer's public entry points.

Nothing in the program is instrumented for this.  ``LayerTrace.install``
replaces each entry point in ``ENTRY_POINTS`` (one table, class level)
with a wrapper that opens a span in a private
:class:`repro.obs.spans.Tracer`; ``remove`` puts the originals back.
``repro.obs`` itself stays disabled.  Spans are recorded only in the
benchmark process: what a shard worker process does shows up as time
inside the ``serve.*`` span that waited for it.

A layer's *self* time is its span's duration minus the part covered by
child spans, so the self times of a tree add up to its root's duration
and a layer is never billed for the layers it calls.  A leaf entry point
called more than ``FOLD_AFTER`` times stops producing spans and is folded
into one count + total child per parent (named ``<span>*``), which keeps
the arithmetic exact without a span per ``resolve_shares`` call.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.bgp.simulator import IngressSimulator
from repro.cms.mitigation import CongestionMitigationSystem
from repro.core.service import TipsyService
from repro.experiments.scenario import Scenario
from repro.obs.spans import Span, Tracer
from repro.pipeline.aggregation import HourlyAggregator
from repro.pipeline.records import AggColumns
from repro.serve.daemon import ServeDaemon
from repro.store.segments import SegmentStore
from repro.telemetry.ipfix import IpfixExporter
from repro.traffic.generator import TrafficGenerator

#: (span name, owner class, attribute).  The span name's prefix is the
#: layer; ``<name>_s`` / ``<name>_calls`` are the per-layer metrics.
ENTRY_POINTS: Tuple[Tuple[str, type, str], ...] = (
    ("traffic.volumes", TrafficGenerator, "volumes_for_hour"),
    ("bgp.resolve", IngressSimulator, "resolve_shares"),
    ("bgp.routing_table", IngressSimulator, "routing_table"),
    ("telemetry.sample_bytes", IpfixExporter, "sample_bytes"),
    ("experiments.stream", Scenario, "stream"),
    ("experiments.traffic_entries", Scenario, "traffic_entries_for"),
    ("pipeline.aggregate", HourlyAggregator, "aggregate_hour_columns"),
    ("pipeline.to_records", AggColumns, "to_records"),
    ("core.ingest", TipsyService, "ingest_hour"),
    ("core.retrain", TipsyService, "retrain"),
    ("core.predict_batch", TipsyService, "predict_batch"),
    ("core.what_if", TipsyService, "what_if"),
    ("core.snapshot", TipsyService, "snapshot"),
    ("core.restore", TipsyService, "restore"),
    ("store.write", SegmentStore, "write"),
    ("store.read", SegmentStore, "read"),
    ("serve.ingest_hour", ServeDaemon, "ingest_hour"),
    ("serve.predict_batch", ServeDaemon, "predict_batch"),
    ("serve.what_if", ServeDaemon, "what_if"),
    ("serve.checkpoint", ServeDaemon, "checkpoint"),
    ("serve.drain", ServeDaemon, "drain"),
    ("serve.resume", ServeDaemon, "resume"),
    ("serve.status", ServeDaemon, "status"),
    ("cms.handle_sample", CongestionMitigationSystem, "handle_sample"),
)

#: generator entry points: one span per item pulled, not one per call
GENERATORS = frozenset({"experiments.stream"})

#: calls of one entry point that get a span each before folding starts
FOLD_AFTER = 10_000

#: harness spans (operation roots) carry this prefix; their self time is
#: the share of an operation no layer entry point accounts for
BENCH_PREFIX = "bench."


class _Open(threading.local):
    """Per-thread stack of the spans this module has open."""

    def __init__(self) -> None:
        self.stack: List[Span] = []
        # seconds spent in spans opened since the enclosing folded call
        # began, so a folded call is not billed for the spans inside it
        self.nested = 0.0


class LayerTrace:
    """A private tracer plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.tracer = Tracer(clock=clock, max_spans=5_000_000)
        self._open = _Open()
        self._calls: Dict[str, int] = {}
        # (id(parent span), name) -> the parent's folded child for name
        self._folded: Dict[Tuple[int, str], Span] = {}
        # id(folded child) -> calls folded into it
        self._fold_calls: Dict[int, int] = {}
        self._originals: List[Tuple[type, str, object]] = []

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        """Open a span nested under this thread's innermost open span."""
        stack = self._open.stack
        with self.tracer.span(name) as node:
            if node is not None:
                stack.append(node)
            try:
                yield node
            finally:
                if node is not None:
                    stack.pop()

    def _fold(self, name: str, seconds: float) -> None:
        stack = self._open.stack
        if not stack:
            return
        parent = stack[-1]
        key = (id(parent), name)
        node = self._folded.get(key)
        if node is None:
            # only this thread touches its own open spans' folded children
            node = Span(name + "*", parent.start)
            node.end = parent.start
            parent.children.append(node)
            self._folded[key] = node
            self._fold_calls[id(node)] = 0
        node.end += seconds  # type: ignore[operator]
        self._fold_calls[id(node)] += 1

    def _timed(self, name: str, function: Callable[..., object],
               args: Tuple[object, ...], kwargs: Dict[str, object]) -> object:
        # unlocked on purpose: a lost update only moves the fold threshold
        seen = self._calls[name] = self._calls.get(name, 0) + 1
        local = self._open
        if seen > FOLD_AFTER:
            outer, local.nested = local.nested, 0.0
            begin = self._clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = self._clock() - begin
                self._fold(name, elapsed - local.nested)
                local.nested = outer + elapsed
        with self.span(name) as node:
            result = function(*args, **kwargs)
        if node is not None:
            local.nested += node.duration
        return result

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, function: Callable[..., object]
              ) -> Callable[..., object]:
        if name in GENERATORS:
            @functools.wraps(function)
            def pulled(*args: object, **kwargs: object) -> Iterator[object]:
                iterator = iter(function(*args, **kwargs))  # type: ignore[call-overload]
                while True:
                    try:
                        item = self._timed(name, next, (iterator,), {})
                    except StopIteration:
                        return
                    yield item
            return pulled

        @functools.wraps(function)
        def timed(*args: object, **kwargs: object) -> object:
            return self._timed(name, function, args, kwargs)
        return timed

    def install(self) -> None:
        """Wrap every entry point (class level).  Pair with ``remove``."""
        if self._originals:
            raise RuntimeError("wrappers already installed")
        for name, owner, attribute in ENTRY_POINTS:
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                wrapped: object = classmethod(
                    self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)

    def remove(self) -> None:
        """Put every original entry point back."""
        for owner, attribute, original in self._originals:
            setattr(owner, attribute, original)
        self._originals.clear()

    @contextmanager
    def installed(self) -> Iterator["LayerTrace"]:
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- reading the tree -----------------------------------------------------

    def _roots(self, prefix: Optional[str]) -> List[Span]:
        return [root for root in self.tracer.roots()
                if prefix is None or root.name.startswith(prefix)]

    def totals(self, prefix: Optional[str] = None) -> Dict[str, List[float]]:
        """``{span name: [calls, self seconds]}`` over the recorded forest,
        optionally only below root spans whose name starts with
        ``prefix``.  Folded children count under their span's name."""
        totals = self_times(self._roots(prefix), self._fold_calls)
        for name in [name for name in totals if name.endswith("*")]:
            calls, seconds = totals.pop(name)
            merged = totals.setdefault(name[:-1], [0.0, 0.0])
            merged[0] += calls
            merged[1] += seconds
        return totals

    def durations_ms(self, name: str, prefix: Optional[str] = None
                     ) -> List[float]:
        """Durations (not self times) of every span called ``name``."""
        found: List[float] = []
        stack = self._roots(prefix)
        while stack:
            node = stack.pop()
            if node.name == name:
                found.append(node.duration * 1e3)
            stack.extend(node.children)
        return found

    def write(self, path: Path, extra: Dict[str, object]) -> None:
        """Write the span forest (and the fold counts) as JSON."""
        payload = dict(extra)
        payload["fold_after"] = FOLD_AFTER
        payload["dropped"] = self.tracer.dropped
        payload["spans"] = [root.to_json() for root in self.tracer.roots()]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


def self_times(roots: List[Span],
               calls_of: Optional[Dict[int, int]] = None
               ) -> Dict[str, List[float]]:
    """``{span name: [count, self seconds]}`` over a forest of spans.

    Self time is a span's duration minus its children's durations
    (children of one span run one after another in the span's thread, so
    their durations are the part of the interval they cover).  A span
    whose id is in ``calls_of`` stands for that many calls.
    """
    calls_of = calls_of or {}
    totals: Dict[str, List[float]] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        covered = sum(child.duration for child in node.children)
        entry = totals.setdefault(node.name, [0.0, 0.0])
        entry[0] += calls_of.get(id(node), 1)
        entry[1] += max(0.0, node.duration - covered)
        stack.extend(node.children)
    return totals


def layer_seconds(totals: Dict[str, List[float]]) -> Tuple[float, float]:
    """(seconds in layer spans, seconds in harness spans) of ``totals``."""
    layers = sum(entry[1] for name, entry in totals.items()
                 if not name.startswith(BENCH_PREFIX))
    harness = sum(entry[1] for name, entry in totals.items()
                  if name.startswith(BENCH_PREFIX))
    return layers, harness
