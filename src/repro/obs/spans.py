"""Nested wall-clock spans: the per-run trace tree.

A span is one timed region with a name; spans opened while another span
is active nest beneath it, so a run's trace is a forest of timing trees
(one root per top-level region).  The tracer's clock is injectable: the
default reads ``time.perf_counter``, tests inject a fake that ticks
deterministically, and — because the clock lives *here*, outside the
determinism-critical packages — hot-path code can open spans without
ever touching the wall clock itself (which is what keeps the RA201 lint
rule clean).

Exception safety is part of the contract: a span closes when its
``with`` block unwinds for *any* reason, so a retrain that raises still
leaves a well-formed tree with correct parentage.

The tracer is thread-aware (each thread nests into its own stack, all
finished roots land in one shared forest) and bounded: past
``max_spans`` recorded spans, new ones are counted but not kept, so a
long-running service cannot grow its trace without limit.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = ["Span", "Tracer", "NOOP_SPAN"]

#: tracer default: keep at most this many spans per run
DEFAULT_MAX_SPANS = 10_000


class Span:
    """One timed region: name, start/end ticks, nested children."""

    __slots__ = ("name", "start", "end", "children")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "children": [child.to_json() for child in self.children],
        }

    def render(self, indent: int = 0) -> List[str]:
        lines = [f"{'  ' * indent}{self.name:<40s} "
                 f"{self.duration * 1e3:10.3f} ms"]
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines


class _NoopSpan:
    """The shared do-nothing context manager the disabled path returns.

    One module-level instance, re-entrant by construction (it carries no
    state), so a disabled ``obs.span(...)`` costs a dict-free attribute
    read and nothing else.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class _ThreadStack(threading.local):
    """Per-thread span stack (spans never nest across threads)."""

    def __init__(self) -> None:
        self.stack: List[Span] = []


class _OpenSpan:
    """What ``Tracer.span`` returns.  A class, not a ``@contextmanager``
    generator, reading the clock first on the way in and last on the way
    out, so a span's own cost falls inside the interval it times and a
    caller timing the same region itself (the benchmark's traced pass)
    sees ~1 us a span less go missing.  Yields ``None`` for a span
    dropped past the cap (which still costs its one clock read)."""

    __slots__ = ("_tracer", "_name", "_node")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name
        self._node: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        tracer = self._tracer
        node = self._node = tracer._open(self._name, tracer._clock())
        return node

    def __exit__(self, *exc_info: object) -> None:
        if self._node is not None:
            self._tracer._close(self._node)


class Tracer:
    """Collects spans into a per-run forest of timing trees."""

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 max_spans: int = DEFAULT_MAX_SPANS):
        self._clock = clock if clock is not None else time.perf_counter
        self._max_spans = max_spans
        self._lock = threading.Lock()
        self._roots: List[Span] = []
        self._local = _ThreadStack()
        self._recorded = 0
        self._dropped = 0

    @property
    def dropped(self) -> int:
        """Spans not kept because the ``max_spans`` cap was reached."""
        with self._lock:
            return self._dropped

    def span(self, name: str) -> "_OpenSpan":
        """Open a named span; nests under the thread's innermost span."""
        return _OpenSpan(self, name)

    def _open(self, name: str, start: float) -> Optional[Span]:
        with self._lock:
            if self._recorded >= self._max_spans:
                self._dropped += 1
                return None
            self._recorded += 1
        node = Span(name, start)
        stack = self._local.stack
        if stack:
            stack[-1].children.append(node)
        else:
            with self._lock:
                self._roots.append(node)
        stack.append(node)
        return node

    def _close(self, node: Span) -> None:
        stack = self._local.stack
        # unwind to (and past) this node even if a child leaked open
        while stack and stack.pop() is not node:
            pass
        node.end = self._clock()

    def roots(self) -> List[Span]:
        """The finished forest (top-level spans in start order)."""
        with self._lock:
            return list(self._roots)

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()
            self._recorded = 0
            self._dropped = 0
        self._local.stack.clear()

    def to_json(self) -> Dict[str, object]:
        return {
            "spans": [root.to_json() for root in self.roots()],
            "dropped": self.dropped,
        }

    def render_text(self) -> str:
        lines: List[str] = []
        for root in self.roots():
            lines.extend(root.render())
        dropped = self.dropped
        if dropped:
            lines.append(f"({dropped} span(s) dropped past the "
                         f"{self._max_spans}-span cap)")
        return "\n".join(lines)
