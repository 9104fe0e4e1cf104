"""Seeded query plans and the open-loop generator that issues them.

The serving workloads follow the arrival discipline of "Traffic
Generation for Benchmarking Data Centre Networks" (PAPERS.md): Poisson
arrivals at a fixed rate with heavy-tailed (Pareto) request sizes, sent
on a schedule that does not slow down when the system does.  One thread
issues the queries in due order and waits for each reply, so a stalled
system delays the *issue* of later queries — which is why every latency
is timed from the query's **due** time, not from when it was sent: the
wait a stall imposes on later queries is part of what a user sees.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.pipeline.records import AggRecord, FlowContext

#: Pareto batch-size distribution of ``predict_batch`` queries
PARETO_ALPHA = 1.2
PARETO_XM = 4
BATCH_CAP = 512
#: share of queries that are ``what_if`` rather than ``predict_batch``
WHAT_IF_SHARE = 0.05
#: ``what_if`` queries ask about one of this many busiest links
N_BUSIEST = 16
#: prediction budget of every query (the paper's top-3)
TOP_K = 3
#: the generator sleeps until this close to a due time, then spins;
#: ``time.sleep`` alone overshoots by more than a warm query takes
SPIN_S = 150e-6
#: the generator offers its idle time (to the speed gauge) only when the
#: next query is at least this far off
IDLE_S = 4e-3

WhatIfPayload = Tuple[List[Tuple[FlowContext, float]], FrozenSet[int]]


def busiest_link_payloads(records: Sequence[AggRecord],
                          n_links: int = N_BUSIEST) -> List[WhatIfPayload]:
    """One ``what_if`` question per busy link of one aggregated hour:
    "if this link were withdrawn, where would its flows land?"."""
    by_link: Dict[int, List[Tuple[FlowContext, float]]] = {}
    totals: Dict[int, float] = {}
    for record in records:
        by_link.setdefault(record.link_id, []).append(
            (record.context, record.bytes))
        totals[record.link_id] = totals.get(record.link_id, 0.0) + record.bytes
    busiest = sorted(totals, key=lambda link: (-totals[link], link))[:n_links]
    return [(by_link[link], frozenset({link})) for link in busiest]


@dataclass
class QueryPlan:
    """A fixed list of queries with the times they are due."""

    due: np.ndarray                       # seconds after the start
    what_if: np.ndarray                   # payload index, -1 = predict
    batches: List[List[FlowContext]]      # contexts of a predict query
    payloads: List[WhatIfPayload]

    def __len__(self) -> int:
        return len(self.due)

    @property
    def n_contexts(self) -> int:
        return sum(len(batch) for batch in self.batches)


def build_plan(rng: np.random.Generator,
               contexts: Sequence[FlowContext],
               payloads: List[WhatIfPayload],
               n_queries: Optional[int] = None,
               rate: Optional[float] = None,
               horizon: Optional[float] = None) -> QueryPlan:
    """A seeded list of queries.

    Closed loop: ``n_queries`` queries all due at once.  Open loop:
    ``rate * horizon`` Poisson arrivals within ``horizon`` seconds.

    The seed decides the order of the queries, their arrival times and
    the flows they ask about; it does not decide how much work the plan
    is.  Every plan of ``n`` queries has the same number of ``what_if``
    questions and the same batch sizes — the ``n`` evenly spaced
    quantiles of the Pareto law — because a drawn sample of a law this
    heavy-tailed differs from seed to seed by a third in its total (mean
    batch 14.0 to 18.8 contexts over ten seeds) and by one context in
    its median, and the metrics would report the draw.
    """
    if rate is None or horizon is None:
        assert n_queries is not None
        due = np.zeros(n_queries)
    else:
        # a Poisson process seen over a fixed time, given how many
        # arrivals it had, is that many uniform arrival times
        n_queries = int(round(rate * horizon))
        due = np.sort(rng.uniform(0.0, horizon, n_queries))
    n_what_if = int(round(WHAT_IF_SHARE * n_queries)) if payloads else 0
    is_what_if = np.zeros(n_queries, dtype=bool)
    is_what_if[rng.choice(n_queries, n_what_if, replace=False)] = True
    n_predict = n_queries - n_what_if
    quantile = (rng.permutation(n_predict) + 0.5) / n_predict
    sizes = np.zeros(n_queries, dtype=int)
    sizes[~is_what_if] = np.minimum(BATCH_CAP, np.floor(
        PARETO_XM * (1.0 - quantile) ** (-1.0 / PARETO_ALPHA)))
    # the questions differ in size by an order of magnitude, so they are
    # asked in turn (in a seeded order), not drawn: every run's what_if
    # latencies then cover the same mix of questions
    order = rng.permutation(max(len(payloads), 1))
    turns = np.cumsum(is_what_if) - 1
    what_if = np.where(is_what_if, order[turns % len(order)], -1)
    batches: List[List[FlowContext]] = []
    for size, payload in zip(sizes.tolist(), what_if.tolist()):
        if payload >= 0:
            batches.append([])
        else:
            rows = rng.integers(0, len(contexts), size)
            batches.append([contexts[row] for row in rows.tolist()])
    return QueryPlan(due, what_if, batches, payloads)


def issue(target: object, plan: QueryPlan, i: int) -> object:
    """Send query ``i`` to a ``TipsyService`` or ``ServeDaemon`` and
    return its reply; raises ``ValueError`` on a wrong-length reply."""
    payload = int(plan.what_if[i])
    if payload >= 0:
        flows, withdrawn = plan.payloads[payload]
        return target.what_if(flows, withdrawn, TOP_K)  # type: ignore[attr-defined]
    batch = plan.batches[i]
    reply = target.predict_batch(batch, TOP_K)  # type: ignore[attr-defined]
    if len(reply) != len(batch):
        raise ValueError(
            f"query {i}: {len(reply)} answers for {len(batch)} contexts")
    return reply


@dataclass
class LoopResult:
    """Per-query timestamps of one generator run (absolute clock)."""

    start: float
    due: np.ndarray        # start + plan.due
    issued: np.ndarray
    done: np.ndarray
    ok: np.ndarray         # bool: replied, right length
    cpu: np.ndarray        # CPU seconds the issuing thread spent in send
    errors: List[str] = field(default_factory=list)

    @property
    def latency_ms(self) -> np.ndarray:
        """Reply time minus **due** time, per query."""
        return (self.done - self.due) * 1e3

    @property
    def service_ms(self) -> np.ndarray:
        """Reply time minus issue time (what a closed loop would see)."""
        return (self.done - self.issued) * 1e3

    @property
    def lateness_ms(self) -> np.ndarray:
        """How late the generator itself issued each query: issue time
        minus the later of the due time and the previous reply.  Waiting
        for a slow reply is the system's doing and is not counted here
        (it is counted in ``latency_ms``)."""
        free = self.due.copy()
        if len(free) > 1:
            free[1:] = np.maximum(free[1:], self.done[:-1])
        return (self.issued - free) * 1e3

    def backlog_growing(self) -> bool:
        """Was the generator falling further behind when the run ended?

        True when queries of the last tenth of the run were typically
        issued more than 5 ms behind schedule and further behind than
        those of the tenth before it.
        """
        n = len(self.due)
        if n < 40:
            return False
        lag = self.issued - self.due
        tenth = n // 10
        last = float(np.median(lag[-tenth:]))
        before = float(np.median(lag[-2 * tenth:-tenth]))
        return last > 0.005 and last > 1.05 * before + 0.001


def run_plan(plan: QueryPlan,
             send: Callable[[int], object],
             clock: Callable[[], float] = time.perf_counter,
             sleep: Callable[[float], None] = time.sleep,
             first: int = 0, last: Optional[int] = None,
             start: Optional[float] = None,
             idle: Optional[Callable[[], None]] = None,
             cpu_clock: Callable[[], float] = time.thread_time
             ) -> LoopResult:
    """Issue ``plan[first:last]`` in due order, each no earlier than due.

    With all-zero due times this is a closed loop (next query when the
    previous reply arrives).  ``send(i)`` performs query ``i``; an
    exception marks the query failed and the run goes on.  ``idle()`` is
    called while waiting for a due time that is still ``IDLE_S`` away.
    ``cpu_clock`` is read around each ``send``: the generator's waiting
    and spinning are the harness's CPU, not the system's.
    """
    last = len(plan) if last is None else last
    n = last - first
    start = clock() if start is None else start
    due = start + plan.due[first:last]
    issued = np.empty(n)
    done = np.empty(n)
    cpu = np.empty(n)
    ok = np.ones(n, dtype=bool)
    errors: List[str] = []
    for slot in range(n):
        target = due[slot]
        now = clock()
        if idle is not None and target - now > IDLE_S:
            idle()
            now = clock()
        if target - now > SPIN_S:
            sleep(target - now - SPIN_S)
        while clock() < target:
            pass
        issued[slot] = clock()
        cpu_before = cpu_clock()
        try:
            send(first + slot)
        except Exception as error:  # a failed query must not end the run
            ok[slot] = False
            if len(errors) < 5:
                errors.append(f"query {first + slot}: {error!r}")
        cpu[slot] = cpu_clock() - cpu_before
        done[slot] = clock()
    return LoopResult(start, due, issued, done, ok, cpu, errors)
