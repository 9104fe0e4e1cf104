"""Self-time arithmetic, folding, and clean removal of the wrappers."""

import pytest

from repro.obs.spans import Span
from repro.pipeline.records import AggColumns
from tipsybench import tracing
from tipsybench.tracing import ENTRY_POINTS, LayerTrace, self_times


def _span(name, start, end, children=()):
    node = Span(name, start)
    node.end = end
    node.children = list(children)
    return node


def test_self_time_is_duration_minus_what_children_cover():
    tree = _span("bench.hour", 0.0, 10.0, [
        _span("pipeline.aggregate", 1.0, 3.0),
        _span("core.ingest", 3.0, 9.0, [
            _span("core.retrain", 4.0, 8.0),
        ]),
    ])
    totals = self_times([tree])
    assert totals["bench.hour"] == [1, pytest.approx(2.0)]
    assert totals["pipeline.aggregate"] == [1, pytest.approx(2.0)]
    assert totals["core.ingest"] == [1, pytest.approx(2.0)]
    assert totals["core.retrain"] == [1, pytest.approx(4.0)]
    # the self times of a tree add up to its root's duration
    assert sum(entry[1] for entry in totals.values()) == pytest.approx(10.0)
    layers, harness = tracing.layer_seconds(totals)
    assert layers == pytest.approx(8.0) and harness == pytest.approx(2.0)


class _Ticker:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_hot_leaves_fold_into_count_and_total(monkeypatch):
    monkeypatch.setattr(tracing, "FOLD_AFTER", 3)
    trace = LayerTrace(clock=_Ticker())
    leaf = trace._wrap("bgp.resolve", lambda: None)
    with trace.span("bench.sample"):
        for _ in range(10):
            leaf()
    totals = trace.totals("bench.")
    assert totals["bgp.resolve"][0] == 10
    root = trace.tracer.roots()[0]
    # three real spans, then one folded child standing for seven calls
    assert [child.name for child in root.children] == (
        ["bgp.resolve"] * 3 + ["bgp.resolve*"])
    whole = sum(entry[1] for entry in totals.values())
    assert whole == pytest.approx(root.duration)


def test_a_folded_call_is_not_billed_for_spans_inside_it(monkeypatch):
    monkeypatch.setattr(tracing, "FOLD_AFTER", 0)
    trace = LayerTrace(clock=_Ticker())
    monkeypatch.setattr(tracing, "FOLD_AFTER", 1)
    inner = trace._wrap("bgp.routing_table", lambda: None)
    trace._calls["bgp.resolve"] = 5            # already past the threshold
    outer = trace._wrap("bgp.resolve", inner)
    with trace.span("bench.sample"):
        outer()
    totals = trace.totals()
    root = trace.tracer.roots()[0]
    assert sum(e[1] for e in totals.values()) == pytest.approx(root.duration)
    assert totals["bgp.routing_table"][1] == pytest.approx(1.0)
    assert totals["bgp.resolve"][1] == pytest.approx(2.0)


def test_install_wraps_every_entry_point_and_remove_restores_them():
    before = [owner.__dict__[attribute]
              for _, owner, attribute in ENTRY_POINTS]
    trace = LayerTrace()
    with trace.installed():
        during = [owner.__dict__[attribute]
                  for _, owner, attribute in ENTRY_POINTS]
        assert all(b is not d for b, d in zip(before, during))
        import numpy as np
        empty = np.empty(0, dtype=np.int64)
        with trace.span("bench.hour"):
            AggColumns(0, empty, empty, empty, empty, empty, empty,
                       np.empty(0)).to_records()
    after = [owner.__dict__[attribute]
             for _, owner, attribute in ENTRY_POINTS]
    assert all(b is a for b, a in zip(before, after))
    assert trace.totals("bench.")["pipeline.to_records"][0] == 1
    with pytest.raises(RuntimeError):
        with trace.installed():
            trace.install()
    assert all(owner.__dict__[attribute] is original for
               (_, owner, attribute), original in zip(ENTRY_POINTS, before))
