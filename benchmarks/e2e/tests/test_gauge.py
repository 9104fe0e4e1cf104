"""The speed gauge: scaling by the slowness measured at the time."""

import numpy as np
import pytest

from tipsybench import gauge as gauge_module
from tipsybench.gauge import PROBE_EVERY_S, Gauge


class _Machine:
    """A clock whose reference work takes ``cost`` seconds right now."""

    def __init__(self):
        self.now = 0.0
        self.cost = 1.0

    def clock(self):
        return self.now

    def work(self):
        self.now += self.cost


def _gauge(machine):
    return Gauge(machine.work, reference_s=1.0, clock=machine.clock)


def test_slowness_follows_the_machine_through_the_run():
    machine = _Machine()
    gauge = _gauge(machine)
    for second in range(40):
        machine.cost = 1.0 if second < 20 else 2.0   # slows down half way
        machine.now = 100.0 + 10.0 * second
        gauge.probe()
    early, late = gauge.slowness(np.array([150.0, 450.0]))
    assert early == pytest.approx(1.0) and late == pytest.approx(2.0)
    # a time measured while the machine was twice as slow is halved
    assert 8.0 / late == pytest.approx(4.0)
    assert gauge.slowness_between(100.0, 250.0) == pytest.approx(1.0)
    assert gauge.slowness_between(400.0, 490.0) == pytest.approx(2.0)


def test_a_probe_is_the_median_of_three_and_outliers_do_not_move_it():
    machine = _Machine()
    machine.cost = 0.01
    gauge = Gauge(machine.work, reference_s=0.01, clock=machine.clock)
    costs = iter([0.05, 0.01, 0.03])

    def uneven():
        machine.now += next(costs)

    gauge._work = uneven
    gauge.probe()
    assert gauge.samples == [pytest.approx(0.03)]
    gauge._work = machine.work
    for _ in range(9):
        gauge.probe()
    machine.cost = 0.05                      # one whole probe hit by a stall
    gauge.probe()
    machine.cost = 0.01
    gauge.probe()
    assert max(gauge.samples) == pytest.approx(0.05)
    assert gauge.slowness(np.array([machine.now]))[0] == pytest.approx(1.0)


def test_the_reference_work_looks_up_a_table_larger_than_a_core_cache():
    gauge_module._reference_work()
    memo = gauge_module._memo
    assert len(memo.table) == gauge_module.MEMO_ENTRIES
    assert all(len(keys) == gauge_module.MEMO_LOOKUPS
               and all(key in memo.table for key in keys)
               for keys in memo.rounds)
    # successive probes look up different keys: no probe finds the
    # previous probe's entries still in the core's own cache
    assert memo.rounds[0] != memo.rounds[1]


def test_tick_probes_no_more_often_than_the_period():
    machine = _Machine()
    machine.cost = PROBE_EVERY_S / 100.0
    gauge = _gauge(machine)
    for _ in range(5):
        gauge.tick()
    assert len(gauge.samples) == 1
    machine.now += PROBE_EVERY_S
    gauge.tick()
    assert len(gauge.samples) == 2
