"""Workload ``replay``: flow records in, predictions and spill out.

Closed batch, one thread, in-process ``TipsyService``.  Set-up streams
``replay_hours`` of IPFIX columns out of the seeded world and spools
them to disk (one ``.npz`` per day) so the input is not in the heap being
measured.  A pass replays them hour by hour through
``aggregate_hour_columns`` -> ``to_records`` -> ``ingest_hour`` with a
rolling window shorter than the input, so the last day boundary retrains
with eviction.  At every day boundary once the service is ready it
serves predictions for every context (scored against that day's actuals,
outside the timed regions), a batch of seeded plan queries and
``what_if`` questions about the busiest links; a pass closes with
snapshot -> restore -> first predictions.  Passes repeat, each on a
fresh aggregator and service, until ``--seconds`` is used up.

``pipeline`` and ``core``'s write path do nearly all the work here;
``serve``, ``bgp`` and ``cms`` do none.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.service import TipsyService
from repro.experiments.scenario import Scenario
from repro.obs import runtime as obs
from repro.pipeline.aggregation import HourlyAggregator
from repro.telemetry.ipfix import IpfixRecord

from . import stats
from .common import (SLO_LIMIT_MS, AccuracyTally, Outcome, QueryTimer,
                     Regions, Sizes, build_world, cpu_seconds,
                     prediction_table, repeated_setup, restart_in_process,
                     rng_for, scratch_dir, service_config)
from .layers import account_for_wall, write_trace
from .loadgen import TOP_K, build_plan, busiest_link_payloads
from .tracing import BENCH_PREFIX, LayerTrace

#: columns spooled per hour: the five IPFIX columns plus the flow row of
#: each record (for scoring only; the program never sees it)
_COLUMNS = ("link", "src_prefix", "src_asn", "dest_prefix", "bytes", "row")

#: horizon of the world; ``replay_hours`` must fit
WORLD_DAYS = 3

#: what a pass runs under: nothing, the benchmark's timing wrappers, or
#: the program's own ``repro.obs`` instrumentation switched on
PLAIN, TRACED, OBSERVED = "plain", "traced", "observed"


class PassResult:
    """What one replay pass measured."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.wall = 0.0
        self.scaled_wall = 0.0      # at reference speed
        self.records = 0
        self.hours = 0
        self.input_load_s = 0.0
        self.restart_s = 0.0
        self.predictions = 0
        self.what_if_flows = 0
        self.memo: Dict[str, int] = {}
        self.pipeline = (0, 0, 0)
        self.retrains = 0
        self.store_bytes = 0
        self.degraded = 0


def _spool(out: Outcome, scenario: Scenario, hours: int,
           directory: Path) -> None:
    arrays: Dict[str, np.ndarray] = {}
    for columns in scenario.stream(0, hours):
        out.gauge.tick()
        keep = columns.sampled_bytes > 0.0
        ipfix = scenario.ipfix_columns_for(columns)
        for name, column in zip(_COLUMNS, ipfix + (columns.flow_rows[keep],)):
            arrays[f"{columns.hour % 24:02d}.{name}"] = column
        if columns.hour % 24 == 23 or columns.hour == hours - 1:
            np.savez(directory / f"day-{columns.hour // 24:02d}.npz", **arrays)
            arrays = {}


def _check_record_path(out: Outcome, scenario: Scenario, hour: int,
                       ipfix: List[np.ndarray]) -> None:
    """Oracle: the per-record aggregator equals the columnar one."""
    link, src_prefix, src_asn, dest_prefix, bytes_ = (
        column.tolist() for column in ipfix)
    records = [IpfixRecord(hour, *fields) for fields in zip(
        link, src_prefix, src_asn, dest_prefix, bytes_)]
    by_record = HourlyAggregator(
        scenario.metadata, scenario.encoders).aggregate_hour(hour, records)
    by_column = HourlyAggregator(
        scenario.metadata, scenario.encoders).aggregate_hour_columns(
            hour, *ipfix).to_records()
    out.attempted += 1
    if by_record != by_column:
        out.fail(f"hour {hour}: aggregate_hour != aggregate_hour_columns")


def one_pass(out: Outcome, sizes: Sizes, scenario: Scenario,
             directory: Path, kind: str, trace: Optional[LayerTrace],
             timer: QueryTimer, tally: Optional[AccuracyTally],
             check_hour: Optional[int]) -> PassResult:
    """Replay the spooled hours once through a fresh pipeline + service."""
    result = PassResult(kind)
    regions = Regions(trace)
    aggregator = HourlyAggregator(scenario.metadata, scenario.encoders)
    service = TipsyService(scenario.wan, service_config(sizes.replay_window))
    contexts = list(scenario.flow_contexts)
    plan_rng = rng_for(out.seed, 1)
    table: Optional[np.ndarray] = None
    for day in range(-(-sizes.replay_hours // 24)):
        begin = time.perf_counter()
        n_hours = min(24, sizes.replay_hours - day * 24)
        with np.load(directory / f"day-{day:02d}.npz") as spooled:
            hours = [[spooled[f"{h:02d}.{name}"] for name in _COLUMNS]
                     for h in range(n_hours)]
        result.input_load_s += time.perf_counter() - begin
        for offset, columns in enumerate(hours):
            out.gauge.tick()
            hour = day * 24 + offset
            ipfix, rows = columns[:5], columns[5]
            out.attempted += 1
            try:
                with regions.timed("bench.hour"):
                    records = aggregator.aggregate_hour_columns(
                        hour, *ipfix).to_records()
                    service.ingest_hour(hour, records)
            except Exception as error:
                out.fail(f"hour {hour}: {error!r}")
                continue
            result.hours += 1
            result.records += len(rows)
            if hour == check_hour:
                _check_record_path(out, scenario, hour, ipfix)
            if offset == 0 and service.ready:
                with regions.timed("bench.serve_day"):
                    served = service.predict_batch(contexts, TOP_K)
                result.predictions += len(contexts)
                table = prediction_table(served)
                plan = build_plan(plan_rng, contexts,
                                  busiest_link_payloads(records),
                                  sizes.queries_per_boundary)
                # the retrain at this boundary emptied the memo
                timer.run(out, regions, service, plan,
                          question_base=hour * len(plan.payloads),
                          fresh_memo=True, what=f"hour {hour} ")
                result.predictions += plan.n_contexts
                result.what_if_flows += sum(
                    len(plan.payloads[payload][0])
                    for payload in plan.what_if.tolist() if payload >= 0)
            if table is not None and tally is not None:
                tally.add(table, rows, ipfix[0], ipfix[4])
    # closing: persist, restart, serve again
    sample_rows = rng_for(out.seed, 2).integers(0, len(contexts), 64)
    sample = [contexts[row] for row in sample_rows.tolist()]
    out.attempted += 1
    with regions.timed("bench.closing"):
        closing = restart_in_process(
            service, directory / "snapshot", sample, 1)
    out.gauge.probe()
    out.fail("restored predictions differ from pre-snapshot ones",
             closing.wrong)
    result.wall = regions.wall
    result.scaled_wall = float((np.array(regions.took) / out.gauge.slowness(
        np.array(regions.when))).sum())
    result.restart_s = closing.times[0]
    result.memo = service.cache_stats()
    stats_ = aggregator.stats
    result.pipeline = (stats_.records_in, stats_.records_out,
                       stats_.records_dropped)
    result.retrains = service.retrain_count
    result.degraded = closing.degraded
    result.store_bytes = closing.store_bytes
    return result


def run(out: Outcome, sizes: Sizes) -> None:
    with scratch_dir() as directory:
        def setup() -> Scenario:
            scenario = build_world(sizes, WORLD_DAYS)
            _spool(out, scenario, sizes.replay_hours, directory)
            return scenario

        scenario = repeated_setup(out, sizes, setup)
        measured_from = time.perf_counter()
        check_hour = int(rng_for(out.seed, 3).integers(
            0, sizes.replay_hours))
        tally = AccuracyTally()
        trace = LayerTrace() if out.trace else None
        kinds = (PLAIN, TRACED, OBSERVED) if out.trace else (PLAIN,)
        # the end-to-end query times are the plain passes'
        timers = {kind: QueryTimer() for kind in kinds}
        passes: List[PassResult] = []
        cpu_begin = cpu_seconds()
        begin = time.perf_counter()
        for kind in itertools.cycle(kinds):
            done = len(passes)
            elapsed = time.perf_counter() - begin
            # stop on a whole cycle, when the next would overrun
            if done and done % len(kinds) == 0 and (
                    elapsed + 0.5 * len(kinds) * elapsed / done
                    >= out.seconds):
                break
            first = not passes
            passes.append(_pass_of_kind(
                out, sizes, scenario, directory, kind, trace, timers[kind],
                tally if first else None, check_hour if first else None))
    _report(out, [p for p in passes if p.kind == PLAIN], timers[PLAIN],
            tally, measured_from)
    if trace is not None:
        _per_layer(out, scenario, trace, passes, cpu_seconds() - cpu_begin)


def _pass_of_kind(out: Outcome, sizes: Sizes, scenario: Scenario,
                  directory: Path, kind: str, trace: Optional[LayerTrace],
                  timer: QueryTimer, tally: Optional[AccuracyTally],
                  check_hour: Optional[int]) -> PassResult:
    if kind == TRACED:
        assert trace is not None
        with trace.installed():
            return one_pass(out, sizes, scenario, directory, kind, trace,
                            timer, tally, check_hour)
    if kind == OBSERVED:
        obs.enable()
        try:
            return one_pass(out, sizes, scenario, directory, kind, None,
                            timer, tally, check_hour)
        finally:
            obs.disable()
            obs.reset()
    return one_pass(out, sizes, scenario, directory, kind, None, timer,
                    tally, check_hour)


def _report(out: Outcome, passes: List[PassResult], timer: QueryTimer,
            tally: AccuracyTally, measured_from: float) -> None:
    out.per_layer["bench.speed_factor"] = out.gauge.slowness_between(
        measured_from, time.perf_counter())
    records = sum(p.records for p in passes)
    out.put_scaled("ops_per_s", records / sum(p.wall for p in passes),
                   records / sum(p.scaled_wall for p in passes), len(passes))
    queries_ms = timer.report(out)
    out.put("slo_ok_frac", float((queries_ms <= SLO_LIMIT_MS).mean()),
            len(queries_ms))
    out.per_layer["core.restart_s"] = stats.median(
        [p.restart_s for p in passes])
    out.put("accuracy_top1", tally.top1)
    out.put("accuracy_top3", tally.top3)
    out.params["passes"] = len(passes)
    out.params["records_per_pass"] = passes[0].records


def _per_layer(out: Outcome, scenario: Scenario, trace: LayerTrace,
               passes: List[PassResult], cpu_s: float) -> None:
    """Per-layer numbers of the traced passes; tracing and ``repro.obs``
    overhead as median traced / observed wall over median plain wall."""
    walls = {kind: stats.median([p.wall for p in passes if p.kind == kind])
             for kind in (PLAIN, TRACED, OBSERVED)}
    traced = [p for p in passes if p.kind == TRACED]
    account_for_wall(out, trace.totals(BENCH_PREFIX),
                     sum(p.wall for p in traced), scenario)
    retrain = trace.durations_ms("core.retrain", BENCH_PREFIX)
    last = traced[-1]
    out.per_layer.update({
        "pipeline.records_in": sum(p.pipeline[0] for p in traced),
        "pipeline.records_out": sum(p.pipeline[1] for p in traced),
        "pipeline.records_dropped": sum(p.pipeline[2] for p in traced),
        "core.retrain_count": sum(p.retrains for p in traced),
        "core.retrain_p50_ms": stats.median(retrain) if retrain else 0.0,
        "core.predictions": sum(p.predictions for p in traced),
        "core.what_if_flows": sum(p.what_if_flows for p in traced),
        "core.memo_hit_ratio": stats.ratio(last.memo["memo_hits"],
                                           last.memo["memo_misses"]),
        "store.write_bytes": sum(p.store_bytes for p in traced),
        "store.read_bytes": sum(p.store_bytes for p in traced),
        "store.segments_degraded": sum(p.degraded for p in traced),
        "obs.overhead_frac": walls[OBSERVED] / walls[PLAIN] - 1.0,
        "bench.trace_overhead_frac": walls[TRACED] / walls[PLAIN] - 1.0,
        "bench.input_load_s": sum(p.input_load_s for p in traced),
        "bench.cpu_s": cpu_s,
    })
    out.params["traced_passes"] = len(traced)
    write_trace(out, trace)

