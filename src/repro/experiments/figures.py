"""Data series for every figure in the paper's evaluation.

Each function returns plain data (lists of points / dicts of series) that
a benchmark prints or a notebook plots; nothing here draws.  The figure
numbering follows the paper:

* Figure 2 — CDF of ingress bytes by source-AS distance
* Figure 3 — CDF of bytes vs number of receiving links, by AS distance
* Figure 5 — oracle accuracy as a function of k
* Figure 6 — earliest outage per link over a long horizon
* Figure 7 — days since each link's last outage
* Figure 9 — accuracy vs training-window length (Appendix B.1)
* Figure 10 — daily accuracy decay after training (Appendix B.2)
* Figure 11 — accuracy distribution across many windows (Appendix B.3)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.accuracy import evaluate_accuracy
from ..core.features import FEATURES_A, FEATURES_AL, FEATURES_AP, FeatureSet
from ..core.oracle import oracle_models
from ..core.training import KeyedTable
from ..pipeline.outages import (
    OutageParams,
    first_outage_days,
    last_outage_days_before,
    schedule_outages,
)
from ..util import running_sum
from .runner import EvaluationRunner, WindowSpec
from .scenario import Scenario


def cdf_points(values: Sequence[float],
               weights: Optional[Sequence[float]] = None,
               ) -> List[Tuple[float, float]]:
    """Weighted CDF as (value, cumulative fraction) points."""
    if weights is None:
        weights = [1.0] * len(values)
    pairs = sorted(zip(values, weights))
    total = running_sum(w for _v, w in pairs)
    if total <= 0.0:
        return []
    out: List[Tuple[float, float]] = []
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        out.append((value, acc / total))
    return out


# -- Figure 2 -----------------------------------------------------------------

def fig2_bytes_by_distance(scenario: Scenario, start_hour: int,
                           end_hour: int) -> Dict[int, float]:
    """Fraction of ingress bytes per source-AS distance (paper Figure 2).

    Distance is the shortest valley-free AS distance, exactly as the
    paper infers it from BMP data.
    """
    by_distance: Dict[int, float] = {}
    for cols in scenario.stream(start_hour, end_hour):
        flows = scenario.traffic.flows
        for row, bytes_ in zip(cols.flow_rows, cols.sampled_bytes):
            if bytes_ <= 0.0:
                continue
            d = scenario.bmp.as_distance(flows[row].src_asn)
            if d is None:
                continue
            by_distance[d] = by_distance.get(d, 0.0) + float(bytes_)
    total = running_sum(by_distance.values())
    return {d: b / total for d, b in sorted(by_distance.items())}


# -- Figure 3 -----------------------------------------------------------------

def fig3_link_spread(scenario: Scenario, start_hour: int, end_hour: int,
                     ) -> Dict[int, List[Tuple[int, float]]]:
    """Per AS-distance CDFs of bytes vs number of receiving links.

    For every source AS, counts how many distinct peering links its
    traffic arrived on, then builds a byte-weighted CDF per distance
    group (paper Figure 3).
    """
    links_per_as: Dict[int, Set[int]] = {}
    bytes_per_as: Dict[int, float] = {}
    flows = scenario.traffic.flows
    for cols in scenario.stream(start_hour, end_hour):
        for row, link_id, bytes_ in zip(cols.flow_rows, cols.link_ids,
                                        cols.sampled_bytes):
            if bytes_ <= 0.0:
                continue
            asn = flows[row].src_asn
            links_per_as.setdefault(asn, set()).add(int(link_id))
            bytes_per_as[asn] = bytes_per_as.get(asn, 0.0) + float(bytes_)

    groups: Dict[int, List[Tuple[int, float]]] = {}
    for asn, links in links_per_as.items():
        d = scenario.bmp.as_distance(asn)
        if d is None:
            continue
        groups.setdefault(min(d, 4), []).append(
            (len(links), bytes_per_as[asn]))
    return {
        d: [(int(v), c) for v, c in cdf_points(
            [float(n) for n, _b in entries], [b for _n, b in entries])]
        for d, entries in sorted(groups.items())
    }


# -- Figure 5 -----------------------------------------------------------------

def fig5_oracle_accuracy_vs_k(
    actuals: KeyedTable,
    ks: Sequence[int] = (1, 2, 3, 4, 5, 7, 10, 15, 25, 50),
    feature_sets: Sequence[FeatureSet] = (FEATURES_A, FEATURES_AP,
                                          FEATURES_AL),
) -> Dict[str, List[Tuple[int, float]]]:
    """Oracle accuracy as a function of k (paper Figure 5), over a test
    window's keyed table (``EvaluationResult.overall_actuals``).

    The unrestricted oracle reaches 100%; the curves show how much of
    the traffic is theoretically predictable at each link budget.
    """
    return {oracle.name: [(k, evaluate_accuracy(actuals, oracle, k))
                          for k in ks]
            for oracle in oracle_models([actuals], feature_sets)}


# -- Figures 6 and 7 ----------------------------------------------------------

def fig6_first_outage_curve(
    link_ids: Sequence[int],
    horizon_days: int = 365,
    params: Optional[OutageParams] = None,
    seed: int = 0,
) -> List[Tuple[int, float]]:
    """Cumulative fraction of links whose first outage happened by day d.

    The paper observes ~80% of links fail at least once in a year, with
    near-linear growth (Figure 6); the default hazard reproduces that
    when run at the paper's year-long horizon with the long-term hazard.
    """
    params = params or OutageParams(daily_hazard=0.0044, flaky_fraction=0.01)
    outages = schedule_outages(link_ids, horizon_days * 24, params, seed=seed)
    firsts = first_outage_days(outages)
    n_links = len(link_ids)
    points = []
    for day in range(horizon_days + 1):
        frac = sum(1 for d in firsts.values() if d <= day) / n_links
        points.append((day, frac))
    return points


def fig7_last_outage_curve(
    link_ids: Sequence[int],
    horizon_days: int = 365,
    params: Optional[OutageParams] = None,
    seed: int = 0,
) -> List[Tuple[int, float]]:
    """Cumulative fraction of links whose last outage was <= d days ago,
    looking back from the end of the horizon (paper Figure 7)."""
    params = params or OutageParams(daily_hazard=0.0044, flaky_fraction=0.01)
    outages = schedule_outages(link_ids, horizon_days * 24, params, seed=seed)
    lasts = last_outage_days_before(outages, horizon_days)
    n_links = len(link_ids)
    points = []
    for age in range(horizon_days + 1):
        frac = sum(1 for a in lasts.values() if a <= age) / n_links
        points.append((age, frac))
    return points


# -- Figure 9: training-window length ------------------------------------------

@dataclass
class WindowSweepPoint:
    """One (training length, accuracy stats) point for Figure 9."""

    train_days: int
    mean: float
    min: float
    max: float


def fig9_training_window_sweep(
    scenario: Scenario,
    train_lengths: Sequence[int] = (3, 7, 14, 21),
    test_starts: Sequence[int] = (21, 22, 23, 24),
    test_days: int = 3,
    model_name: str = "Hist_AL/AP/A",
    k: int = 3,
) -> List[WindowSweepPoint]:
    """Accuracy vs training-window length, averaged over several
    non-overlapping test periods (paper Figure 9 / Appendix B.1)."""
    runner = EvaluationRunner(scenario)
    points: List[WindowSweepPoint] = []
    for length in train_lengths:
        accs: List[float] = []
        for start in test_starts:
            if start < length:
                continue
            result = runner.run(WindowSpec(train_start_day=start - length,
                                           train_days=length,
                                           test_days=test_days))
            accs.append(result.overall.get(model_name, k))
        if accs:
            points.append(WindowSweepPoint(
                length, running_sum(accs) / len(accs), min(accs), max(accs)))
    return points


@dataclass(frozen=True)
class TukeySummary:
    """Box-plot statistics with Tukey whiskers (paper Figure 11's
    caption: "Whiskers follow Tukey's definition")."""

    q1: float
    median: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: Tuple[float, ...]


def tukey_summary(values: Sequence[float]) -> TukeySummary:
    """Quartiles plus Tukey whiskers (last points within 1.5 IQR)."""
    if not values:
        raise ValueError("tukey_summary needs at least one value")
    data = np.asarray(sorted(values), dtype=float)
    q1, median, q3 = (float(np.percentile(data, p)) for p in (25, 50, 75))
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = data[(data >= lo_fence) & (data <= hi_fence)]
    whisker_low = float(inside.min()) if inside.size else q1
    whisker_high = float(inside.max()) if inside.size else q3
    outliers = tuple(float(v) for v in data
                     if v < lo_fence or v > hi_fence)
    return TukeySummary(q1, median, q3, whisker_low, whisker_high,
                        outliers)


# -- Figure 11: sensitivity across windows -------------------------------------------

def fig11_outage_sensitivity(
    scenario: Scenario,
    n_windows: int = 6,
    train_days: int = 10,
    model_name: str = "Hist_AL/AP/A",
    k: int = 3,
) -> Dict[str, List[float]]:
    """Accuracy distributions by outage type across many 1-day test
    windows (paper Figure 11).  Returns lists of per-window accuracies
    keyed by partition name."""
    runner = EvaluationRunner(scenario)
    out: Dict[str, List[float]] = {
        "overall": [], "outages_all": [], "outages_seen": [],
        "outages_unseen": [],
    }
    horizon = scenario.params.horizon_days
    for i in range(n_windows):
        start = i % max(1, horizon - train_days - 1)
        window = WindowSpec(train_start_day=start, train_days=train_days,
                            test_days=1)
        if window.test_hours[1] > scenario.horizon_hours:
            continue
        result = runner.run(window)
        for name, block in (("overall", result.overall),
                            ("outages_all", result.outages_all),
                            ("outages_seen", result.outages_seen),
                            ("outages_unseen", result.outages_unseen)):
            if block.rows.get(model_name) and block.total_bytes > 0:
                out[name].append(block.rows[model_name][k])
    return out
