"""Workloads ``query_steady`` and ``serve_live``: the sharded daemon.

Both start ``ServeDaemon(workers="process", n_shards=2)``, ingest some
hours of telemetry and drain in set-up, then send the seeded query plan
(95 % Pareto-sized ``predict_batch``, 5 % ``what_if`` against one of the
16 busiest links) **open loop** from one thread: Poisson arrivals,
latency from each query's due time.

``query_steady`` (200 queries/s, no ingest while measuring) isolates the
read path: scatter, pickle, pipe, shard predict on a warm memo, gather.

``serve_live`` (100 queries/s) runs the same plan while a second thread
feeds live hours — aggregate -> ``to_records`` -> ``ingest_hour`` — on a
fixed cadence, with a day-boundary retrain and hot swap in flight and a
``checkpoint`` after each completed live day; it uses ``serve``/``core``/
``store`` the other way round, writes beside reads, so a read-path gain
that makes ingest, swap or checkpoint dearer shows here.

What is gated of the hop is the share of queries answered within the
latency limit and, on ``serve_live``, its cost beside the live feed's
(queries per CPU-second of the daemon's front process); the latencies
themselves, and on ``query_steady`` the front process's CPU, swing with
the host and are reported per layer (README, "Repeatability").  The
gated query times, and ``query_steady``'s rate, are the plan's queries
against the single-process oracle.

Both end with drain -> checkpoint -> shutdown -> repeated
(``ServeDaemon.resume`` -> first prediction), and compare sampled
batches bit for bit with a single-process ``TipsyService`` fed the same
stream after the drain and after every resume.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import pickle
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (Callable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core.service import TipsyService
from repro.experiments.scenario import HourColumns, Scenario
from repro.pipeline.aggregation import HourlyAggregator
from repro.pipeline.records import AggRecord, FlowContext
from repro.serve.daemon import DaemonConfig, ServeDaemon
from repro.store.segments import SegmentStore

from . import stats
from .common import (LADDER_QPS, SLO_LIMIT_MS, AccuracyTally, IpfixColumns,
                     Outcome, QueryTimer, Regions, Sizes, build_world,
                     cpu_seconds, digest_hour, prediction_table,
                     repeated_setup, rng_for, scratch_dir, service_config,
                     settle_heap)
from .layers import fill_from_totals, write_trace
from .loadgen import (TOP_K, LoopResult, QueryPlan, build_plan,
                      busiest_link_payloads, issue, run_plan)
from .tracing import BENCH_PREFIX, LayerTrace

#: a generator that issues more than this share of queries over 1 ms
#: late (of its own doing) makes the run's latencies meaningless
LATE_MS = 1.0
LATE_SHARE = 0.01
#: horizon of the world: set-up plus live hours must fit
WORLD_DAYS = 3
#: the rate ladder's latency limit on p99
LADDER_LIMIT_MS = 10.0


class Built(NamedTuple):
    """What one set-up leaves behind."""

    scenario: Scenario
    daemon: ServeDaemon
    aggregator: HourlyAggregator
    fed: List[Tuple[int, List[AggRecord]]]      # what the daemon ingested
    unscored: List[HourColumns]      # hours newer than the trained days
    live_inputs: List[Tuple[int, IpfixColumns]]
    plan: QueryPlan


def _start(scenario: Scenario, sizes: Sizes, workers: str) -> ServeDaemon:
    return ServeDaemon(scenario.wan, DaemonConfig(
        n_shards=sizes.n_shards, workers=workers,
        service=service_config(sizes.serve_window))).start()


def _setup(out: Outcome, sizes: Sizes, hours: int, rate: float,
           n_live: int, idle: Callable[[], None]) -> Built:
    """World, daemon, ``hours`` ingested and drained, the live hours'
    input, the query plan, and a warm-up."""
    scenario = build_world(sizes, WORLD_DAYS)
    aggregator = HourlyAggregator(scenario.metadata, scenario.encoders)
    daemon = _start(scenario, sizes, "process")
    try:
        stream = scenario.stream(0, hours + n_live)
        fed: List[Tuple[int, List[AggRecord]]] = []
        unscored: List[HourColumns] = []
        for columns in itertools.islice(stream, hours):
            out.gauge.tick()
            records = digest_hour(aggregator, scenario, columns)
            daemon.ingest_hour(columns.hour, records)
            fed.append((columns.hour, records))
            if columns.hour // 24 == (hours - 1) // 24:
                unscored.append(columns)
        live_inputs = []
        for columns in stream:
            out.gauge.tick()
            live_inputs.append(
                (columns.hour, scenario.ipfix_columns_for(columns)))
        daemon.drain()
        contexts = list(scenario.flow_contexts)
        plan = build_plan(rng_for(out.seed, 1), contexts,
                          busiest_link_payloads(fed[-1][1]),
                          rate=rate, horizon=out.seconds)
        # warm-up: pipes, worker code paths and the shards' memo
        warm = build_plan(rng_for(out.seed, 4), contexts, plan.payloads,
                          sizes.warmup_queries)
        run_plan(warm, lambda i: issue(daemon, warm, i), idle=idle)
    except BaseException:
        daemon.shutdown(drain=False)
        raise
    return Built(scenario, daemon, aggregator, fed, unscored, live_inputs,
                 plan)


class Rig:
    """The daemon under test, its oracle, and the inputs set-up made."""

    def __init__(self, built: Built, sizes: Sizes, with_inline: bool):
        self.scenario = built.scenario
        self.contexts: List[FlowContext] = list(built.scenario.flow_contexts)
        self.daemon = built.daemon
        self.daemons: List[ServeDaemon] = [built.daemon]
        self.aggregator = built.aggregator
        self.live_inputs = built.live_inputs
        self.oracle = TipsyService(built.scenario.wan,
                                   service_config(sizes.serve_window))
        self.inline: Optional[ServeDaemon] = None
        if with_inline:
            self.inline = _start(built.scenario, sizes, "inline")
            self.daemons.append(self.inline)
        for hour, records in built.fed:
            self.feed_all(hour, records)
        self.accuracy = AccuracyTally()
        table = prediction_table(
            self.daemon.predict_batch(self.contexts, TOP_K))
        for columns in built.unscored:
            self.accuracy.add(table, columns.flow_rows, columns.link_ids,
                              columns.sampled_bytes)

    def feed_all(self, hour: int, records: Sequence[AggRecord]) -> None:
        """Give the oracle (and the inline twin) what the daemon got."""
        self.oracle.ingest_hour(hour, records)
        if self.inline is not None:
            self.inline.ingest_hour(hour, records)

    def shutdown_all(self) -> None:
        """Stop every daemon this rig started that is still up."""
        for daemon in self.daemons:
            try:
                daemon.shutdown(drain=False)
            except Exception:  # already failing; stopping is best effort
                pass


class Feeder(threading.Thread):
    """Feeds the live hours to the daemon on a fixed cadence."""

    def __init__(self, rig: Rig, period: float, start: float,
                 checkpoint_dir: Path, trace: Optional[LayerTrace]):
        super().__init__(name="bench-feeder")
        self.rig = rig
        self.period = period
        self.start_time = start
        self.checkpoint_dir = checkpoint_dir
        self.trace = trace
        self.calls: List[float] = []        # when each hour's feed began
        self.fed: List[Tuple[int, List[AggRecord]]] = []
        self.errors: List[str] = []
        self.cpu_s = 0.0                    # CPU this thread used
        self.backlog_max = 0
        self.staleness_max = 0

    def _feed(self, hour: int, ipfix: IpfixColumns) -> None:
        rig = self.rig
        records = rig.aggregator.aggregate_hour_columns(
            hour, *ipfix).to_records()
        rig.daemon.ingest_hour(hour, records)
        self.fed.append((hour, records))
        if hour % 24 == 23:
            rig.daemon.checkpoint(self.checkpoint_dir)
        if self.trace is not None:
            status = rig.daemon.status()
            self.backlog_max = max(self.backlog_max, status.ingest_backlog)
            self.staleness_max = max(self.staleness_max,
                                     status.max_staleness_hours)

    def run(self) -> None:
        for slot, (hour, ipfix) in enumerate(self.rig.live_inputs):
            wait = self.start_time + slot * self.period - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            self.calls.append(time.perf_counter())
            try:
                if self.trace is None:
                    self._feed(hour, ipfix)
                else:
                    with self.trace.span("bench.live_hour"):
                        self._feed(hour, ipfix)
            except Exception as error:
                self.errors.append(f"live hour {hour}: {error!r}")
        self.cpu_s = time.thread_time()


def _verify(out: Outcome, daemon: ServeDaemon, rig: Rig, plan: QueryPlan,
            n_batches: int, what: str, stream: int = 5) -> None:
    """Oracle: the daemon's answers equal the single-process service's."""
    predict = np.flatnonzero(plan.what_if < 0)
    chosen = rng_for(out.seed, stream).choice(
        predict, size=min(n_batches, len(predict)), replace=False)
    wrong = 0
    for i in chosen.tolist():
        batch = plan.batches[i]
        wrong += (daemon.predict_batch(batch, TOP_K)
                  != rig.oracle.predict_batch(batch, TOP_K))
    for flows, withdrawn in plan.payloads:
        wrong += (daemon.what_if(flows, withdrawn, TOP_K)
                  != rig.oracle.what_if(flows, withdrawn, TOP_K))
    out.attempted += len(chosen) + len(plan.payloads)
    out.fail(f"{what}: answers differ from the single-process oracle", wrong)


def _restarts(out: Outcome, sizes: Sizes, rig: Rig, plan: QueryPlan,
              checkpoint_dir: Path, trace: Optional[LayerTrace],
              between: Callable[[], None]) -> List[float]:
    """checkpoint -> shutdown -> n x (resume -> first prediction), with
    ``between()`` called, untraced, before each resume and after the
    last."""
    with _closing(trace):
        rig.daemon.checkpoint(checkpoint_dir)
        rig.daemon.shutdown()
    sample = rig.contexts[:64]
    times: List[float] = []
    for attempt in range(sizes.restarts):
        between()
        out.attempted += 1
        gc.collect()    # the harness's garbage is not the restart's
        try:
            with _closing(trace):
                begin = time.perf_counter()
                resumed = ServeDaemon.resume(checkpoint_dir, rig.scenario.wan)
                rig.daemons.append(resumed)
                resumed.predict_batch(sample, TOP_K)
                times.append(time.perf_counter() - begin)
                # the resumes share one after-drain's worth of sampled
                # batches
                _verify(out, resumed, rig, plan,
                        sizes.oracle_batches // sizes.restarts,
                        f"resume {attempt}", stream=6 + attempt)
                resumed.shutdown()
        except Exception as error:
            out.fail(f"resume {attempt}: {error!r}")
    between()
    return times


def _workers_cpu_s() -> float:
    """CPU seconds the live child processes (the daemon's shard workers)
    have used so far, from the scheduler's per-process run time."""
    total = 0
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/schedstat", encoding="ascii") as stat:
            total += int(stat.read().split()[0])
    return total / 1e9


def _time_in_process(out: Outcome, timer: QueryTimer, rig: Rig,
                     plan: QueryPlan, seconds: float) -> None:
    """What the queries cost without the daemon — the model's share of a
    query, which a single-threaded measurement can report steadily:
    cycles through the plan against the oracle for ``seconds``."""
    regions = Regions()
    deadline = time.perf_counter() + seconds
    at = len(timer.took) % len(plan)
    while time.perf_counter() < deadline:
        at = timer.run(out, regions, rig.oracle, plan, first=at,
                       deadline=deadline, what="in process: ") % len(plan)


def _stall_p50_ms(feeder: Feeder, result: LoopResult) -> float:
    """Median over live hours of the worst latency among the queries due
    between that hour's feed and the next."""
    edges = feeder.calls + [float("inf")]
    latency = result.latency_ms
    worst = []
    for begin, end in zip(edges, edges[1:]):
        during = latency[(result.due >= begin) & (result.due < end)]
        if len(during):
            worst.append(float(during.max()))
    return stats.median(worst) if worst else 0.0


@contextmanager
def _closing(trace: Optional[LayerTrace]) -> Iterator[None]:
    """After the window: on a traced run, keep timing the layers."""
    if trace is None:
        yield
        return
    with trace.installed(), trace.span("bench.closing"):
        yield


def _merge(parts: List[LoopResult]) -> LoopResult:
    return LoopResult(
        parts[0].start,
        np.concatenate([p.due for p in parts]),
        np.concatenate([p.issued for p in parts]),
        np.concatenate([p.done for p in parts]),
        np.concatenate([p.ok for p in parts]),
        np.concatenate([p.cpu for p in parts]),
        [error for p in parts for error in p.errors])


def _run(out: Outcome, sizes: Sizes, live: bool) -> None:
    rate = sizes.live_qps if live else sizes.steady_qps
    hours = sizes.live_setup_hours if live else sizes.steady_setup_hours
    n_live = int(out.seconds / sizes.live_period_s) if live else 0
    n_live = min(n_live, WORLD_DAYS * 24 - hours)
    out.params.update({"rate_qps": rate, "live_hours": n_live})
    rig: Optional[Rig] = None
    idle = out.gauge.tick
    with scratch_dir() as directory:
        built = repeated_setup(
            out, sizes,
            lambda: _setup(out, sizes, hours, rate, n_live, idle),
            lambda unused: unused.daemon.shutdown(drain=False))
        try:
            rig = Rig(built, sizes, with_inline=out.trace)
            settle_heap()
            _measure(out, sizes, rig, built.plan, live, directory, idle)
        finally:
            if rig is None:
                built.daemon.shutdown(drain=False)
            else:
                rig.shutdown_all()


def _window(out: Outcome, sizes: Sizes, plan: QueryPlan, daemon: ServeDaemon,
            start: float, trace: Optional[LayerTrace],
            idle: Callable[[], None]) -> Tuple[LoopResult, np.ndarray]:
    """Send the plan open loop; returns the timestamps and which queries
    were sent with the timing wrappers installed.  A traced run installs
    them for every other slice of the window; the slices between are the
    reference its tracing overhead is measured against."""
    def send(i: int) -> object:
        return issue(daemon, plan, i)

    if trace is None:
        return (run_plan(plan, send, start=start, idle=idle),
                np.zeros(len(plan), dtype=bool))

    def send_traced(i: int) -> object:
        with trace.span("bench.query"):
            return issue(daemon, plan, i)

    edges = np.searchsorted(plan.due, np.arange(
        0.0, out.seconds + sizes.slice_s, sizes.slice_s))
    parts: List[LoopResult] = []
    traced = np.zeros(len(plan), dtype=bool)
    for number, (first, last) in enumerate(zip(edges, edges[1:])):
        if first == last:
            continue
        if number % 2:
            traced[first:last] = True
            with trace.installed():
                parts.append(run_plan(plan, send_traced, first=first,
                                      last=last, start=start,
                                      idle=idle))
        else:
            parts.append(run_plan(plan, send, first=first, last=last,
                                  start=start, idle=idle))
    return _merge(parts), traced


def _measure(out: Outcome, sizes: Sizes, rig: Rig, plan: QueryPlan,
             live: bool, directory: Path, idle: Callable[[], None]) -> None:
    trace = LayerTrace() if out.trace else None
    daemon = rig.daemon
    cpu_begin = cpu_seconds()
    workers_cpu = -_workers_cpu_s()
    start = time.perf_counter() + 0.05
    feeder = Feeder(rig, sizes.live_period_s, start, directory / "live",
                    trace)
    feeder.start()
    try:
        result, traced = _window(out, sizes, plan, daemon, start, trace,
                                 idle)
    finally:
        feeder.join()
    out.gauge.probe()
    with _closing(trace):
        daemon.drain()
    workers_cpu += _workers_cpu_s()
    for hour, records in feeder.fed:
        rig.feed_all(hour, records)
    if rig.inline is not None:
        rig.inline.drain()
    for error in feeder.errors + result.errors:
        out.notes.append(error)

    # -- correctness -----------------------------------------------------
    out.attempted += len(plan) + len(rig.live_inputs)
    out.fail("queries raised or returned the wrong length",
             int((~result.ok).sum()))
    out.fail("live hours failed to feed", len(feeder.errors))
    _verify(out, daemon, rig, plan, sizes.oracle_batches, "after drain")

    # -- end-to-end metrics (times at reference speed) ---------------------
    end = float(result.done[-1])
    out.per_layer["bench.speed_factor"] = out.gauge.slowness_between(
        start, end)
    latency = result.latency_ms
    predict = (plan.what_if < 0) & result.ok
    what_if = (plan.what_if >= 0) & result.ok
    lateness = result.lateness_ms
    late_share = float((lateness > LATE_MS).mean())
    if result.backlog_growing():
        out.valid = False
        out.notes.append("backlog was still growing when the run ended")
    if not live and late_share > LATE_SHARE:
        # with a live feeder the generator waits for the interpreter
        # lock like any client thread would; that wait is the system's
        out.valid = False
        out.notes.append(f"{late_share:.1%} of queries issued >1 ms late")
    # what a query costs the daemon's front process — the generator
    # thread inside its calls plus the live-feed thread — the serial
    # stage every query passes through, so its CPU per query caps the
    # daemon's rate.  The shard workers' CPU is reported per layer: they
    # run on whichever virtual CPU the host gives them, whose speed this
    # thread's gauge does not see.
    answered = float(result.ok.sum())
    slowness = out.gauge.slowness(result.due)
    front_cpu = float(result.cpu.sum()) + feeder.cpu_s
    if live:
        out.put_scaled(
            "ops_per_s", answered / front_cpu,
            answered / (float((result.cpu / slowness).sum())
                        + feeder.cpu_s / float(np.median(slowness))),
            len(plan))
    # the daemon's latencies swing with the host (README, "Demoted"):
    # reported per layer, as measured; the gated query times are the
    # model's share, timed in process
    asked = plan.what_if[what_if]
    out.per_layer.update({
        "serve.query_p50_ms": stats.median(latency[predict]),
        "serve.what_if_p50_ms": stats.mean_of_group_medians(
            latency[what_if], asked),
        "serve.front_cpu_ms_per_query": front_cpu / answered * 1e3,
        "serve.worker_cpu_ms_per_query": workers_cpu / answered * 1e3,
    })
    within = (latency / slowness <= SLO_LIMIT_MS) & result.ok
    out.put("slo_ok_frac", float(within.mean()), len(plan))
    out.put("accuracy_top1", rig.accuracy.top1)
    out.put("accuracy_top3", rig.accuracy.top3)
    stall = _stall_p50_ms(feeder, result) if live else 0.0
    if trace is not None:
        _hop_terms(out, sizes, rig, plan)
        if not live:
            _ladder(out, sizes, rig, plan)
    # the in-process times are taken in slices between the restarts, so
    # that no one short mood of the machine is the whole sample
    timer = QueryTimer()

    def in_process_slice() -> None:
        _time_in_process(out, timer, rig, plan,
                         sizes.in_process_s / (sizes.restarts + 1))

    restarts = _restarts(out, sizes, rig, plan, directory / "final", trace,
                         in_process_slice)
    if restarts:
        out.per_layer["serve.restart_s"] = stats.median(restarts)
    alone_ms = timer.report(out)
    if not live:
        # with no live feed the front process's CPU is all pipe round
        # trips, whose cost has moods no gauge sees (README, "Demoted"):
        # the gated rate is the oracle's
        out.put_scaled("ops_per_s", len(timer.took) / sum(timer.took),
                       len(alone_ms) / (float(alone_ms.sum()) / 1e3),
                       len(alone_ms))
    if trace is not None:
        _per_layer(out, rig, plan, trace, result, traced, feeder, stall,
                   late_share)
        out.per_layer["store.read_bytes"] = out.per_layer[
            "store.write_bytes"] = float(sum(
                SegmentStore(directory / "final" / f"shard-{shard:02d}")
                .total_bytes() for shard in range(sizes.n_shards)))
        out.per_layer["bench.cpu_s"] = cpu_seconds() - cpu_begin
        write_trace(out, trace)


def _closed_ms(target: object, plan: QueryPlan, chosen: List[int]
               ) -> float:
    """Median closed-loop service time of the chosen predict batches."""
    times = []
    for i in chosen:
        begin = time.perf_counter()
        target.predict_batch(plan.batches[i], TOP_K)  # type: ignore[attr-defined]
        times.append((time.perf_counter() - begin) * 1e3)
    return stats.median(times)


def _hop_terms(out: Outcome, sizes: Sizes, rig: Rig, plan: QueryPlan
               ) -> None:
    """Untraced comparisons that split the serving hop into its terms."""
    chosen = np.flatnonzero(plan.what_if < 0)[:sizes.oracle_batches].tolist()
    # the same batches against the model alone, the daemon without the
    # process hop, and the daemon: their differences name the hop's terms
    oracle_ms = _closed_ms(rig.oracle, plan, chosen)
    inline_ms = _closed_ms(rig.inline, plan, chosen)
    process_ms = _closed_ms(rig.daemon, plan, chosen)
    # request + reply as the daemon's pipe would carry them, pickled here
    # by the benchmark: computed, not measured on the wire
    replies = [rig.oracle.predict_batch(plan.batches[i], TOP_K)
               for i in chosen]
    begin = time.perf_counter()
    payload_bytes = 0
    for i, reply in zip(chosen, replies):
        payload_bytes += len(pickle.dumps(
            ("predict", plan.batches[i], TOP_K, frozenset())))
        payload_bytes += len(pickle.dumps(("ok", reply)))
    pickle_ms = (time.perf_counter() - begin) * 1e3
    begin = time.perf_counter()
    served = 0
    for i in itertools.cycle(chosen):
        served += len(rig.daemon.predict_batch(plan.batches[i], TOP_K))
        if time.perf_counter() - begin > 1.0:
            break
    status = rig.daemon.status()
    hits = sum(shard.memo_hits for shard in status.shards)
    misses = sum(shard.memo_misses for shard in status.shards)
    out.per_layer.update({
        "core.memo_hit_ratio": stats.ratio(hits, misses),
        "serve.hop_p50_ms": process_ms - oracle_ms,
        "serve.scatter_gather_p50_ms": inline_ms - oracle_ms,
        "serve.ipc_p50_ms": process_ms - inline_ms,
        "serve.payload_bytes_per_query": payload_bytes / len(chosen),
        "serve.pickle_ms_per_query": pickle_ms / len(chosen),
        "serve.swaps": status.total_swaps,
        "serve.max_staleness_hours": status.max_staleness_hours,
        "serve.closed_loop_predictions_per_s":
            served / (time.perf_counter() - begin),
    })


def _ladder(out: Outcome, sizes: Sizes, rig: Rig, plan: QueryPlan) -> None:
    """The rate ladder (traced ``query_steady`` only): the same daemon
    under the same kind of plan at each of ``LADDER_QPS``, open loop,
    ``ladder_step_s`` seconds each (longer at the rates where a p99
    needs it); reports p99 at each rate and the highest rate that keeps
    p99 within ``LADDER_LIMIT_MS`` without a growing backlog."""
    daemon = rig.daemon
    sustained = 0.0
    for step, rate in enumerate(LADDER_QPS):
        rung = build_plan(rng_for(out.seed, 10 + step), rig.contexts,
                          plan.payloads, rate=rate,
                          horizon=max(sizes.ladder_step_s,
                                      sizes.ladder_queries / rate))
        result = run_plan(rung, lambda i: issue(daemon, rung, i))
        out.attempted += len(rung)
        out.fail(f"queries failed at {rate} qps", int((~result.ok).sum()))
        try:
            p99 = stats.percentile(result.latency_ms[result.ok], 99)
        except stats.TooFewSamples as error:
            out.notes.append(f"ladder at {rate} qps: {error}")
            p99 = 0.0
        out.per_layer[f"serve.p99_ms_at_{rate}qps"] = p99
        if 0.0 < p99 <= LADDER_LIMIT_MS and not result.backlog_growing():
            sustained = float(rate)
    out.per_layer["serve.slo_rate_qps"] = sustained


def _per_layer(out: Outcome, rig: Rig, plan: QueryPlan, trace: LayerTrace,
               result: LoopResult, traced: np.ndarray, feeder: Feeder,
               stall: float, late_share: float) -> None:
    fill_from_totals(out, trace.totals(BENCH_PREFIX), rig.scenario)
    latency = result.latency_ms
    predict = plan.what_if < 0
    reference = stats.median(latency[predict & ~traced])
    with_trace = stats.median(latency[predict & traced])
    try:
        p99 = stats.percentile(latency[predict & result.ok], 99)
    except stats.TooFewSamples:
        p99 = 0.0
    out.per_layer.update({
        "pipeline.records_in": sum(
            len(ipfix[0]) for _, ipfix in rig.live_inputs),
        "pipeline.records_out": sum(len(r) for _, r in feeder.fed),
        "pipeline.records_dropped": rig.aggregator.stats.records_dropped,
        "core.predictions": plan.n_contexts,
        "core.what_if_flows": sum(
            len(plan.payloads[p][0]) for p in plan.what_if.tolist()
            if p >= 0),
        "serve.max_staleness_hours": max(
            feeder.staleness_max,
            out.per_layer["serve.max_staleness_hours"]),
        "serve.ingest_backlog_max": feeder.backlog_max,
        "serve.ingest_stall_p50_ms": stall,
        "serve.slo_miss_frac": 1.0 - out.end_to_end["slo_ok_frac"],
        "serve.query_p99_ms": p99,
        "bench.trace_overhead_frac": with_trace / reference - 1.0,
        "bench.gen_lateness_p99_ms": stats.percentile(
            result.lateness_ms, 99),
    })
    out.params["late_share"] = late_share


def run_steady(out: Outcome, sizes: Sizes) -> None:
    _run(out, sizes, live=False)


def run_live(out: Outcome, sizes: Sizes) -> None:
    _run(out, sizes, live=True)
