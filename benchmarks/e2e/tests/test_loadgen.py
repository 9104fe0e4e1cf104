"""The open-loop generator against a fake clock."""

import numpy as np

from tipsybench.loadgen import QueryPlan, build_plan, run_plan
from tipsybench.common import rng_for


class FakeClock:
    """Time moves only when someone sleeps, works, or looks at it."""

    TICK = 1e-6

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        self.now += self.TICK
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def _plan(due):
    n = len(due)
    return QueryPlan(np.array(due, dtype=float), np.full(n, -1),
                     [[] for _ in range(n)], [])


def test_latency_is_measured_from_the_due_time_not_the_send_time():
    clock = FakeClock()
    plan = _plan([0.010, 0.020, 0.030])
    service = {0: 0.025, 1: 0.001, 2: 0.001}   # query 0 stalls for 25 ms

    def send(i):
        clock.sleep(service[i])

    result = run_plan(plan, send, clock=clock, sleep=clock.sleep)
    latency = result.latency_ms
    # query 0: due 10 ms, done 35 ms
    assert abs(latency[0] - 25.0) < 0.1
    # query 1 was due at 20 ms but could only be sent at 35 ms: the user
    # waited 16 ms, although the system "served" it in 1 ms
    assert abs(latency[1] - 16.0) < 0.1
    assert abs(result.service_ms[1] - 1.0) < 0.1
    # query 2: due 30 ms, sent at 36 ms, done 37 ms
    assert abs(latency[2] - 7.0) < 0.1
    # none of that waiting was the generator's own lateness
    assert result.lateness_ms.max() < 0.1


def test_generator_lateness_is_reported():
    clock = FakeClock()
    plan = _plan([0.010, 0.020])

    def oversleep(seconds):
        clock.sleep(seconds + 0.003)           # wakes 3 ms late

    result = run_plan(plan, lambda i: None, clock=clock, sleep=oversleep)
    assert np.all(result.lateness_ms > 2.5)
    assert np.all(result.lateness_ms < 3.5)
    # and it is counted in the latency a user would have seen
    assert np.all(result.latency_ms > 2.5)


def test_only_the_cpu_spent_inside_send_is_billed_to_the_system():
    clock = FakeClock()
    cpu = FakeClock()                          # the issuing thread's CPU
    plan = _plan([0.010, 0.020])

    def send(i):
        cpu.sleep(0.0004)                      # 0.4 ms of work
        clock.sleep(0.003)                     # ... and 2.6 ms of waiting

    def spin_then_sleep(seconds):
        cpu.sleep(0.5)                         # the harness's own burning
        clock.sleep(seconds)

    result = run_plan(plan, send, clock=clock, sleep=spin_then_sleep,
                      cpu_clock=cpu)
    assert np.allclose(result.cpu, 0.0004, atol=1e-5)


def test_a_failed_query_is_recorded_and_the_run_goes_on():
    clock = FakeClock()
    plan = _plan([0.0, 0.0, 0.0])

    def send(i):
        if i == 1:
            raise ValueError("wrong-length reply")

    result = run_plan(plan, send, clock=clock, sleep=clock.sleep)
    assert result.ok.tolist() == [True, False, True]
    assert "wrong-length" in result.errors[0]


def test_backlog_growth_is_detected():
    clock = FakeClock()
    plan = _plan(np.arange(200) * 0.001)       # 1000 queries/s offered

    result = run_plan(plan, lambda i: clock.sleep(0.002),  # 500/s served
                      clock=clock, sleep=clock.sleep)
    assert result.backlog_growing()
    steady = run_plan(plan, lambda i: clock.sleep(0.0001),
                      clock=clock, sleep=clock.sleep)
    assert not steady.backlog_growing()


def test_plans_are_a_function_of_the_seed():
    contexts = [(asn, 0, 0, 0, 0) for asn in range(50)]
    payloads = [([((1, 0, 0, 0, 0), 5.0)], frozenset({3}))]
    one = build_plan(rng_for(7, 1), contexts, payloads, rate=200.0,
                     horizon=5.0)
    same = build_plan(rng_for(7, 1), contexts, payloads, rate=200.0,
                      horizon=5.0)
    other = build_plan(rng_for(8, 1), contexts, payloads, rate=200.0,
                       horizon=5.0)
    assert one.batches == same.batches
    assert np.array_equal(one.due, same.due)
    assert one.batches != other.batches
    assert not np.array_equal(one.due, other.due)
    assert 0.0 <= one.due[0] and one.due[-1] < 5.0
    assert np.all(np.diff(one.due) >= 0.0)


def test_every_seed_plans_the_same_amount_of_work():
    contexts = [(asn, 0, 0, 0, 0) for asn in range(50)]
    payloads = [([((1, 0, 0, 0, 0), 5.0)], frozenset({3}))]
    plans = [build_plan(rng_for(seed, 1), contexts, payloads, rate=200.0,
                        horizon=5.0) for seed in (7, 8)]
    for plan in plans:
        assert len(plan) == 1000
        assert int((plan.what_if >= 0).sum()) == 50
        assert all(not batch for batch, asked
                   in zip(plan.batches, plan.what_if) if asked >= 0)
    sizes = [sorted(len(batch) for batch, asked
                    in zip(plan.batches, plan.what_if) if asked < 0)
             for plan in plans]
    assert sizes[0] == sizes[1]
    # ... the quantiles of the Pareto law: heavy-tailed, capped
    assert sizes[0][0] == 4 and sizes[0][-1] == 512
    assert sizes[0][len(sizes[0]) // 2] == 7
    # in a different order
    assert ([len(batch) for batch in plans[0].batches]
            != [len(batch) for batch in plans[1].batches])
