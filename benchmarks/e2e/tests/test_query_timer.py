"""The in-process query timer: what it times, what it leaves out."""

import numpy as np

from tipsybench.common import QUERY_CHUNK, Outcome, QueryTimer, Regions
from tipsybench.loadgen import QueryPlan


class _Service:
    """Answers every query; ``what_if`` of link 13 raises."""

    def predict_batch(self, batch, k):
        return [[] for _ in batch]

    def what_if(self, flows, withdrawn, k):
        if 13 in withdrawn:
            raise RuntimeError("no such link")
        return {}


def _plan(what_if):
    n = len(what_if)
    return QueryPlan(np.zeros(n), np.array(what_if), [[(1,)]] * n,
                     [([], frozenset({link})) for link in (3, 4, 13)])


def _outcome():
    return Outcome(workload="test", seed=1, seconds=1.0, trace=False,
                   quick=True)


def test_a_question_s_first_ask_of_a_fresh_memo_is_not_a_warm_sample():
    out, timer = _outcome(), QueryTimer()
    plan = _plan([-1, 0, 1, 0, -1, 1, 0, 1])
    timer.run(out, Regions(), _Service(), plan, question_base=100,
              fresh_memo=True)
    assert timer.question == [-1, 100, 101, 100, -1, 101, 100, 101]
    assert timer.cold == [False, True, True, False, False, False, False,
                          False]
    # the same questions again, of the memo they have filled
    timer.run(out, Regions(), _Service(), plan, question_base=100)
    assert not any(timer.cold[8:])
    times = timer.report(out)
    assert len(times) == 16 and out.attempted == 16 and out.failed == 0
    assert out.samples["query_p50_ms"] == 4
    assert out.samples["what_if_p50_ms"] == 10
    assert out.end_to_end["what_if_p50_ms"] > 0
    assert out.raw["query_p50_ms"] > 0


def test_a_query_that_raises_is_a_failed_operation_and_is_not_timed():
    out, timer = _outcome(), QueryTimer()
    timer.run(out, Regions(), _Service(), _plan([-1, 2, -1]), what="hour 5 ")
    assert out.attempted == 3 and out.failed == 1
    assert "hour 5 query 1" in out.notes[0]
    assert timer.question == [-1, -1]


def test_the_machine_is_probed_around_every_chunk_and_a_deadline_stops_it():
    out, timer = _outcome(), QueryTimer()
    plan = _plan([-1] * (2 * QUERY_CHUNK + 10))
    assert timer.run(out, Regions(), _Service(), plan) == len(plan)
    assert len(timer.gauge.samples) == 4       # before 3 chunks, and after
    # a deadline already past: nothing is sent, the index does not move
    assert timer.run(out, Regions(), _Service(), plan, first=7,
                     deadline=0.0) == 7
    assert len(timer.took) == len(plan)
