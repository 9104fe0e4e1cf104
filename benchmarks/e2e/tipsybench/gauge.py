"""How slow this machine is right now, sampled between operations.

The sandbox is a guest on a shared host.  Measured on this repository
while nothing else ran in the guest: the same replay pass at 195 k to
325 k records/s within ten minutes; the same daemon query at 0.5 ms and
at 1.3 ms a few minutes apart; ten runs of one workload with quartiles
20 % to 35 % apart on every time they reported.  The machine's speed has
moods that last tens of seconds to minutes, and no statistic taken
inside a run removes a slowdown that covers the run.  So the benchmark
measures the machine while it measures the system, with a fixed piece of
reference work made of what the system is made of, and reports every
end-to-end *time* at reference speed: divided by the machine's slowness
when it was measured, every rate multiplied by it.  Values as measured
are kept in each result's ``raw`` section; the run's median slowness is
the per-layer metric ``bench.speed_factor``.

The moods are mostly the memory system's, not the core's.  Over 160
three-second samples of the serving plan's queries against an in-process
``TipsyService`` (nine minutes, nothing else running), with five
candidate probes timed between every hundred queries: a pure interpreter
loop moved 1.8 % between its quartiles and numpy grouping + dict filling
+ a pickle round trip (the first version of this gauge) 5 %, while
random reads of a 64 MB array moved 42 %, random look-ups in a 30 000
entry ``OrderedDict`` 34 %, the median ``what_if`` 30 % and the median
``predict_batch`` 20 %.  A neighbour that evicts the shared cache slows a
warm memo look-up — a tuple hashed, a dict slot and a linked-list node
fetched — much more than it slows arithmetic.  Divided by the first
gauge the two query times still spread 25 % and 15 %; divided by the
first gauge's work plus 400 such look-ups, 6 % and 7 %.  So the
reference work is both.  How many look-ups was read off three sets of
ten runs of every workload, recomputed with from none to 1 200 of them
in the probe: no number is best everywhere (a bad hour wants more, a
calm one fewer), and ``MEMO_LOOKUPS`` had the lowest mean spread over
all workloads' time metrics — 7.2 %, against 8.4 % with none and 9.5 %
with 1 200.  They are about three eighths of a probe on a good minute.

The same gauge scales latencies measured through the sharded daemon.  A
second gauge that timed a pickled round trip to two echo processes (the
daemon's hop without the daemon) was tried for those and dropped: over
three sets of ten runs it left ``query_p50_ms`` spreads of 9 %, 42 % and
9 % where the single-process one left 7 %, 19 % and 14 % (as measured:
23 %, 31 %, 17 %) — how long a blocked process takes to wake changes
from one minute to the next and from one pair of processes to the next.

A probe is the median of three runs of the reference work, taken between
operations, never inside a timed one.  A time is scaled by the median of
the probes within ``PROBE_WINDOW_S`` of it.
"""

from __future__ import annotations

import pickle
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: seconds a probe takes at the reference speed: the sandbox this
#: benchmark was sized on (2-core Xeon @ 2.1 GHz guest) on a good minute
REFERENCE_S = 400e-6
#: a gauge probes at most this often
PROBE_EVERY_S = 0.08
#: a time is scaled by the median of the probes within this many seconds
PROBE_WINDOW_S = 1.5
#: the look-up table of the reference work: larger than a core's own
#: caches, so a look-up is served by the cache the host's guests share
MEMO_ENTRIES = 30000
MEMO_LOOKUPS = 200

_PROBE_KEYS = np.random.default_rng(0).integers(0, 5000, 4000)
_PROBE_ROWS = [(i, i % 7, i % 13, float(i)) for i in range(150)]

_MemoKey = Tuple[str, Tuple[int, int, int], int, frozenset]


class _Memo:
    """A table shaped like ``TipsyService``'s memo and seeded rounds of
    keys to look up in it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.table: "OrderedDict[_MemoKey, tuple]" = OrderedDict()
        for i, grain in enumerate(
                rng.integers(0, 1 << 30, MEMO_ENTRIES).tolist()):
            self.table[("model", (grain, i % 97, i % 13), 3, frozenset())] = (
                tuple((i + rank, float(rank)) for rank in range(3)))
        keys = list(self.table)
        self.rounds = [[keys[at] for at in row] for row in rng.integers(
            0, MEMO_ENTRIES, (64, MEMO_LOOKUPS)).tolist()]
        self.turn = 0
        # recency order as a long run leaves it, not as the build did
        for at in rng.permutation(MEMO_ENTRIES).tolist():
            self.table.move_to_end(keys[at])


_memo: Optional[_Memo] = None


def _reference_work() -> None:
    global _memo
    if _memo is None:
        _memo = _Memo()
    np.unique(_PROBE_KEYS, return_inverse=True)
    table: Dict[int, object] = {}
    for key in _PROBE_KEYS[:1000].tolist():
        table[key] = (key, table.get(key - 1))
    pickle.loads(pickle.dumps(_PROBE_ROWS))
    memo = _memo.table
    answers = []
    for memo_key in _memo.rounds[_memo.turn % len(_memo.rounds)]:
        answer = memo.get(memo_key)
        memo.move_to_end(memo_key)
        answers.append(list(answer))  # type: ignore[arg-type]
    _memo.turn += 1


class Gauge:
    """Timed probes of one piece of reference work, and the slowness
    they imply at any moment of the run."""

    def __init__(self, work: Callable[[], None], reference_s: float,
                 clock: Callable[[], float] = time.perf_counter):
        self._work = work
        self._reference = reference_s
        self._clock = clock
        self.times: List[float] = []
        self.samples: List[float] = []
        for _ in range(3):       # warm the work's code path, unrecorded
            work()

    def _timed(self) -> float:
        begin = self._clock()
        self._work()
        return self._clock() - begin

    def probe(self) -> None:
        """Probe now (around a single long operation)."""
        self.samples.append(
            sorted((self._timed(), self._timed(), self._timed()))[1])
        self.times.append(self._clock())

    def tick(self) -> None:
        """Probe if the last probe is ``PROBE_EVERY_S`` old."""
        if not self.times or (
                self._clock() - self.times[-1] >= PROBE_EVERY_S):
            self.probe()

    def slowness_between(self, begin: float, end: float) -> float:
        """Median slowness over the probes taken from ``begin`` to ``end``
        (and ``PROBE_WINDOW_S`` either side): 1.0 = reference speed,
        1.25 = a quarter slower."""
        times = np.array(self.times)
        near = ((times >= begin - PROBE_WINDOW_S)
                & (times <= end + PROBE_WINDOW_S))
        if not near.any():
            self.probe()
            return self.samples[-1] / self._reference
        return float(np.median(np.array(self.samples)[near])
                     ) / self._reference

    def slowness(self, when: np.ndarray) -> np.ndarray:
        """Slowness at each of the times ``when``."""
        if not self.times:
            self.probe()
        times = np.array(self.times)
        samples = np.array(self.samples)
        smooth = np.array([
            np.median(samples[np.abs(times - at) <= PROBE_WINDOW_S])
            for at in times])
        return np.interp(when, times, smooth) / self._reference


def machine_gauge() -> Gauge:
    """The gauge every run uses."""
    return Gauge(_reference_work, REFERENCE_S)
