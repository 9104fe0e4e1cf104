"""Span-tree shape: nesting, exception unwind, the cap, rendering."""

from __future__ import annotations

import pytest

from repro.obs.spans import NOOP_SPAN, Tracer


class FakeClock:
    """Deterministic tick source: each read advances by `step`."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        tick = self.now
        self.now += self.step
        return tick


class TestNesting:
    def test_children_nest_under_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner_a"):
                pass
            with tracer.span("inner_b"):
                pass
        roots = tracer.roots()
        assert [root.name for root in roots] == ["outer"]
        assert [child.name for child in roots[0].children] == \
            ["inner_a", "inner_b"]

    def test_sequential_roots(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots()] == ["first", "second"]

    def test_durations_from_injected_clock(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        with tracer.span("outer"):      # start=0
            with tracer.span("inner"):  # start=1, end=2
                pass
        outer, = tracer.roots()
        inner, = outer.children
        assert inner.duration == pytest.approx(1.0)
        assert outer.duration == pytest.approx(3.0)  # end=3

    def test_a_span_times_its_own_bookkeeping(self):
        """The clock is read before the span is pushed and after it is
        popped, so an outside clock around the ``with`` sees almost
        nothing the span does not (the benchmark's traced pass adds
        self times up to such a wall)."""
        depths = []
        tracer = Tracer(clock=lambda: float(
            depths.append(len(tracer._local.stack)) or len(depths)))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert depths == [0, 1, 1, 0]
        outer, = tracer.roots()
        assert (outer.start, outer.children[0].start,
                outer.children[0].end, outer.end) == (1.0, 2.0, 3.0, 4.0)


class TestExceptionSafety:
    def test_span_closes_on_exception(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        outer, = tracer.roots()
        inner, = outer.children
        assert inner.end is not None
        assert outer.end is not None

    def test_tree_reusable_after_exception(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("failed"):
                raise ValueError
        with tracer.span("next"):
            pass
        # `next` is a fresh root, not a child of the failed span
        assert [root.name for root in tracer.roots()] == ["failed", "next"]


class TestCap:
    def test_spans_past_cap_dropped_and_counted(self):
        tracer = Tracer(clock=FakeClock(), max_spans=2)
        for name in ("a", "b", "c", "d"):
            with tracer.span(name) as node:
                assert (node is None) == (name in "cd")
        assert [root.name for root in tracer.roots()] == ["a", "b"]
        assert tracer.dropped == 2
        assert tracer.to_json()["dropped"] == 2

    def test_clear_resets_cap(self):
        tracer = Tracer(clock=FakeClock(), max_spans=1)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        tracer.clear()
        with tracer.span("c"):
            pass
        assert [root.name for root in tracer.roots()] == ["c"]
        assert tracer.dropped == 0


class TestRendering:
    def test_to_json_shape(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        payload = tracer.to_json()
        outer = payload["spans"][0]
        assert outer["name"] == "outer"
        assert outer["children"][0]["name"] == "inner"
        assert outer["duration"] >= outer["children"][0]["duration"]

    def test_render_text_indents_children(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        lines = tracer.render_text().splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")


class TestNoopSpan:
    def test_reentrant_and_stateless(self):
        with NOOP_SPAN as first:
            with NOOP_SPAN as second:
                assert first is second is NOOP_SPAN

    def test_swallows_nothing(self):
        with pytest.raises(KeyError):
            with NOOP_SPAN:
                raise KeyError
