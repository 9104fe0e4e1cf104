"""Workload ``withdrawal_churn``: the CMS loop against BGP ground truth.

Closed batch, one thread, in-process ``TipsyService`` trained in set-up.
Each live hour streams one hour of telemetry under a CMS-owned
``AdvertisementState`` (``Scenario.stream`` -> ``traffic_entries_for`` ->
``CongestionMitigationSystem.handle_sample``, TIPSY-guided, with the
monitor's sample period calibrated in set-up so that about 2 % of
link-hours exceed the 85 % trigger), then probes busy links: ask
``what_if(flows on L, {L} + outages)``, obtain the ground truth by taking
L down in the BGP simulator and streaming the hour again, and score the
withdrawal model's top-k against where the bytes really went.  A few
plain ``predict_batch`` queries per hour keep the query metrics defined.

The only workload where ``bgp`` (incremental table repair, share
re-expansion), ``traffic``, ``telemetry`` and ``cms`` do the work, and
where ``core`` predicts memo-cold (every probe is a new ``unavailable``
set).  ``pipeline``, ``serve`` and ``store`` are idle while measuring.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.bgp.propagation import compute_routing_table, default_bias
from repro.bgp.state import AdvertisementState
from repro.cms.mitigation import CongestionMitigationSystem
from repro.core.service import TipsyService
from repro.experiments.scenario import HourColumns, Scenario
from repro.pipeline.aggregation import HourlyAggregator

from . import stats
from .common import (SLO_LIMIT_MS, AccuracyTally, Outcome, QueryTimer,
                     Regions, Sizes, build_world, cpu_seconds, digest_hour,
                     peak_rss_mb, prediction_table, repeated_setup,
                     restart_in_process, rng_for, scratch_dir, service_config)
from .gauge import Gauge
from .layers import account_for_wall, write_trace
from .loadgen import TOP_K, N_BUSIEST, build_plan
from .tracing import BENCH_PREFIX, LayerTrace

#: horizon of the world: training hours plus ``MAX_LIVE_HOURS`` must fit
WORLD_DAYS = 5
#: live hours available after training; the run stops at ``--seconds``
#: or here, whichever comes first
MAX_LIVE_HOURS = 72
#: share of link-hours the calibrated CMS sample period puts over the
#: congestion trigger
CONGESTED_SHARE = 0.02
#: ``what_if`` must hand back the bytes it was given, to this precision
CONSERVATION = 1e-9
#: removal sets on which incremental table repair is checked
TABLE_CHECKS = 5


class Tally:
    """Counts and samples of the measured loop (or one half of it)."""

    def __init__(self, trace: Optional[LayerTrace] = None):
        self.regions = Regions(trace)
        self.probes = 0
        self.hours = 0
        self.what_if_at: List[int] = []    # region numbers of the probes
        self.what_if_hour: List[int] = []  # ... and the hour each was in
        self.what_if_flows = 0
        self.predictions = 0
        self.flow_records = 0
        self.actions: Dict[str, int] = {}

    def times(self, gauge: Gauge) -> Tuple[np.ndarray, np.ndarray]:
        """Every region's seconds as measured and at reference speed."""
        took = np.array(self.regions.took)
        if not len(took):
            return took, took
        return took, took / gauge.slowness(np.array(self.regions.when))


def _stream_hour(scenario: Scenario, hour: int,
                 state: AdvertisementState) -> HourColumns:
    return next(iter(scenario.stream(hour, hour + 1, state,
                                     apply_outages=False)))


def _calibrated_period(scenario: Scenario,
                       link_hour_bytes: List[np.ndarray]) -> float:
    """The CMS sample period that puts ``CONGESTED_SHARE`` of the
    training link-hours over the monitor's default 85 % trigger."""
    capacity = np.zeros(len(link_hour_bytes[0]))
    for link in scenario.wan.links:
        capacity[link.link_id] = link.capacity_gbps * 1e9 / 8.0
    seconds_full = np.concatenate([
        hour_bytes[capacity > 0] / capacity[capacity > 0]
        for hour_bytes in link_hour_bytes])
    return float(np.quantile(seconds_full, 1.0 - CONGESTED_SHARE)) / 0.85


def _score_probe(accuracy: AccuracyTally, service: TipsyService,
                 scenario: Scenario, base: HourColumns, down: HourColumns,
                 link: int, unavailable: FrozenSet[int]) -> None:
    """Where did the bytes on ``link`` really go when it went down, and
    did they land on the withdrawal model's top-k links?"""
    n_links = int(max(base.link_ids.max(), down.link_ids.max())) + 1
    probed = np.unique(base.flow_rows[base.link_ids == link])
    keep_base = np.isin(base.flow_rows, probed)
    keep_down = np.isin(down.flow_rows, probed)
    base_key = base.flow_rows[keep_base] * n_links + base.link_ids[keep_base]
    order = np.argsort(base_key)
    base_key, base_bytes = base_key[order], base.true_bytes[keep_base][order]
    rows, links = down.flow_rows[keep_down], down.link_ids[keep_down]
    key = rows * n_links + links
    at = np.minimum(np.searchsorted(base_key, key), len(base_key) - 1)
    before = np.where(base_key[at] == key, base_bytes[at], 0.0)
    gained = np.maximum(down.true_bytes[keep_down] - before, 0.0)
    contexts = [scenario.flow_contexts[row] for row in probed.tolist()]
    table = prediction_table(
        service.predict_batch(contexts, TOP_K, unavailable))
    accuracy.add(table, np.searchsorted(probed, rows), links, gained)


def _one_hour(out: Outcome, sizes: Sizes, tally: Tally, scenario: Scenario,
              service: TipsyService, cms: CongestionMitigationSystem,
              state: AdvertisementState, hour: int,
              plan_rng: np.random.Generator, timer: QueryTimer,
              accuracy: Optional[AccuracyTally]) -> None:
    regions = tally.regions
    out.gauge.tick()
    with regions.timed("bench.sample"):
        scenario.apply_outage_transitions(state, hour)
        base = _stream_hour(scenario, hour, state)
        entries = scenario.traffic_entries_for(base)
        actions = cms.handle_sample(hour, state, entries)
        if actions:
            # the CMS changed the advertisements: probe the state it left
            base = _stream_hour(scenario, hour, state)
    tally.hours += 1
    tally.flow_records += len(base.flow_rows)
    for action in actions:
        tally.actions[action.kind] = tally.actions.get(action.kind, 0) + 1
    link_bytes = np.bincount(base.link_ids, weights=base.sampled_bytes)
    busiest = [int(link) for link in np.argsort(-link_bytes, kind="stable")
               [:N_BUSIEST]
               if link_bytes[link] > 0 and link not in state.link_outages]
    contexts = scenario.flow_contexts
    for link in busiest[:sizes.probes_per_hour]:
        at_link = (base.link_ids == link) & (base.sampled_bytes > 0.0)
        flows = [(contexts[row], bytes_) for row, bytes_ in zip(
            base.flow_rows[at_link].tolist(),
            base.sampled_bytes[at_link].tolist())]
        unavailable = frozenset({link}) | state.link_outages
        out.attempted += 1
        tally.probes += 1
        out.gauge.tick()
        try:
            with regions.timed("bench.what_if"):
                spill = service.what_if(flows, unavailable, TOP_K)
            tally.what_if_at.append(len(regions.took) - 1)
            tally.what_if_hour.append(hour)
            tally.what_if_flows += len(flows)
            with regions.timed("bench.ground_truth"):
                state.set_link_down(link)
                try:
                    down = _stream_hour(scenario, hour, state)
                finally:
                    state.set_link_up(link)
        except Exception as error:
            out.fail(f"hour {hour} probe of link {link}: {error!r}")
            continue
        tally.flow_records += len(down.flow_rows)
        given = sum(bytes_ for _, bytes_ in flows)
        if abs(sum(spill.values()) - given) > CONSERVATION * given:
            out.fail(f"hour {hour} link {link}: what_if returned "
                     f"{sum(spill.values())!r} of {given!r} bytes")
        if accuracy is not None:
            _score_probe(accuracy, service, scenario, base, down, link,
                         unavailable)
    plan = build_plan(plan_rng, contexts, [], sizes.queries_per_hour)
    timer.run(out, regions, service, plan, what=f"hour {hour} ")
    tally.predictions += plan.n_contexts


def _check_tables(out: Outcome, scenario: Scenario,
                  rng: np.random.Generator) -> None:
    """Oracle: incrementally repaired routing tables equal rebuilt ones."""
    simulator = scenario.simulator
    bias = default_bias(scenario.graph, scenario.params.seed)
    link_ids = list(scenario.wan.link_ids)
    for _ in range(TABLE_CHECKS):
        removed = frozenset(rng.choice(
            link_ids, size=int(rng.integers(1, 9)), replace=False).tolist())
        repaired = simulator.routing_table(removed)
        rebuilt = compute_routing_table(
            scenario.graph, simulator.seeded_for(removed), bias)
        out.attempted += 1
        if not repaired.columns_equal(rebuilt):
            out.fail(f"routing table for removed={sorted(removed)}: "
                     "incremental update != full rebuild")


class _World(NamedTuple):
    """What set-up hands to the measured loop."""

    scenario: Scenario
    service: TipsyService
    cms: CongestionMitigationSystem
    state: AdvertisementState
    period: float


def _setup(out: Outcome, sizes: Sizes) -> _World:
    train_hours = sizes.churn_train_hours
    scenario = build_world(sizes, WORLD_DAYS)
    aggregator = HourlyAggregator(scenario.metadata, scenario.encoders)
    service = TipsyService(scenario.wan, service_config(sizes.churn_window))
    n_links = max(scenario.wan.link_ids) + 1
    link_hour_bytes = []
    for columns in scenario.stream(0, train_hours):
        out.gauge.tick()
        service.ingest_hour(columns.hour,
                            digest_hour(aggregator, scenario, columns))
        link_hour_bytes.append(np.bincount(
            columns.link_ids, weights=columns.sampled_bytes,
            minlength=n_links))
    period = _calibrated_period(scenario, link_hour_bytes)
    cms = CongestionMitigationSystem(
        scenario.wan,
        predictor=service.model(service.config.withdrawal_model),
        period_seconds=period)
    return _World(scenario, service, cms, scenario.state_at(train_hours),
                  period)


def run(out: Outcome, sizes: Sizes) -> None:
    world = repeated_setup(out, sizes, lambda: _setup(out, sizes))
    scenario, service, cms, state, period = world
    out.params["cms_period_s"] = period
    measured_from = time.perf_counter()

    train_hours = sizes.churn_train_hours
    plan_rng = rng_for(out.seed, 1)
    accuracy = AccuracyTally()
    timer = QueryTimer()
    trace = LayerTrace() if out.trace else None
    plain = Tally()
    traced = Tally(trace)
    cpu_begin = cpu_seconds()
    bgp_traced = {key: 0 for key in scenario.simulator.cache_stats()}
    begin = time.perf_counter()
    for live in range(MAX_LIVE_HOURS):
        # every run scores the same first hours, however fast it is
        scored = live < sizes.scored_hours
        if live == sizes.scored_hours:
            # the simulator's caches grow with every hour run; read the
            # peak where every run has done the same work
            out.put("peak_rss_mb", peak_rss_mb())
        if not scored and time.perf_counter() - begin >= out.seconds:
            break
        hour = train_hours + live
        # a traced run times every other hour, the rest are its reference
        tracing = trace is not None and live % 2 == 1
        try:
            if tracing:
                bgp_before = scenario.simulator.cache_stats()
                with trace.installed():  # type: ignore[union-attr]
                    _one_hour(out, sizes, traced, scenario, service, cms,
                              state, hour, plan_rng, timer,
                              accuracy if scored else None)
                for key, value in scenario.simulator.cache_stats().items():
                    bgp_traced[key] += value - bgp_before[key]
            else:
                _one_hour(out, sizes, plain, scenario, service, cms, state,
                          hour, plan_rng, timer,
                          accuracy if scored else None)
        except Exception as error:
            out.attempted += 1
            out.fail(f"hour {hour}: {error!r}")
    out.gauge.probe()
    out.per_layer["bench.speed_factor"] = out.gauge.slowness_between(
        measured_from, time.perf_counter())
    _check_tables(out, scenario, rng_for(out.seed, 3))
    contexts = list(scenario.flow_contexts)
    with scratch_dir() as directory:
        out.attempted += 1
        restarts = restart_in_process(
            service, directory / "snapshot", contexts[:64], sizes.restarts)
    out.fail("restored predictions differ from pre-snapshot ones",
             restarts.wrong)

    probes = plain.probes + traced.probes
    wall = scaled_wall = 0.0
    measured: List[np.ndarray] = []
    scaled: List[np.ndarray] = []
    hours: List[int] = []
    for tally in (plain, traced):
        took, took_scaled = tally.times(out.gauge)
        wall += float(took.sum())
        scaled_wall += float(took_scaled.sum())
        measured.append(took[tally.what_if_at] * 1e3)
        scaled.append(took_scaled[tally.what_if_at] * 1e3)
        hours += tally.what_if_hour
    out.put_scaled("ops_per_s", probes / wall, probes / scaled_wall, probes)
    queries_ms = timer.report(out)
    # how many hours a run gets through depends on the machine, and the
    # hours differ in how large their busiest links are: a median per
    # hour first, so that every hour weighs the same however many ran
    what_if_ms = np.concatenate(scaled)
    out.put_scaled(
        "what_if_p50_ms",
        stats.mean_of_group_medians(np.concatenate(measured), hours),
        stats.mean_of_group_medians(what_if_ms, hours), len(hours))
    both = np.concatenate([queries_ms, what_if_ms])
    out.put("slo_ok_frac", float((both <= SLO_LIMIT_MS).mean()), len(both))
    out.per_layer["core.restart_s"] = stats.median(restarts.times)
    out.put("accuracy_top1", accuracy.top1)
    out.put("accuracy_top3", accuracy.top3)
    out.params["live_hours"] = plain.hours + traced.hours
    if trace is not None:
        _per_layer(out, scenario, service, trace, plain, traced, bgp_traced,
                   cpu_seconds() - cpu_begin)


def _per_layer(out: Outcome, scenario: Scenario, service: TipsyService,
               trace: LayerTrace, plain: Tally, traced: Tally,
               bgp: Dict[str, int], cpu_s: float) -> None:
    wall = traced.regions.wall
    account_for_wall(out, trace.totals(BENCH_PREFIX), wall, scenario)
    memo = service.cache_stats()
    withdrawals = sum(count for kind, count in traced.actions.items()
                      if kind.startswith("withdraw"))
    unsafe = traced.actions.get("skip-unsafe", 0)
    out.per_layer.update({
        "bgp.table_misses": bgp["table_misses"],
        "bgp.incremental_updates": bgp["table_incremental_updates"],
        "bgp.full_rebuilds": bgp["table_full_rebuilds"],
        "bgp.share_hit_ratio": stats.ratio(bgp["share_hits"],
                                           bgp["share_misses"]),
        "telemetry.flow_records": traced.flow_records,
        "core.predictions": traced.predictions,
        "core.what_if_flows": traced.what_if_flows,
        "core.memo_hit_ratio": stats.ratio(memo["memo_hits"],
                                           memo["memo_misses"]),
        "cms.actions": sum(traced.actions.values()),
        "cms.safe_ratio": stats.ratio(withdrawals, unsafe),
        "bench.trace_overhead_frac": (
            (wall / traced.probes) / (plain.regions.wall / plain.probes)
            - 1.0),
        "bench.cpu_s": cpu_s,
    })
    write_trace(out, trace)
