"""Train/test evaluation runner (paper §5.1).

Reproduces the paper's methodology end to end:

* train on a window of sampled telemetry (3 weeks in the paper),
* test on the following window (1 week),
* infer outages from IPFIX ("no bytes in an hour" rule) on both windows,
* partition test traffic into normal vs outage-affected — a flow is
  outage-affected in the hours when its byte-dominant training link is
  down (§5.3.1) — and split outage-affected traffic into *seen* (the link
  also failed during training) and *unseen* (§5.3.2),
* score every model with the byte-weighted top-k metric, handing it the
  availability prior for the hours being scored,
* build the matching k-restricted oracles per feature set.

Training reads the feed the service trains on: ``feed_window`` folds
``Scenario.aggregated_hours`` through ``DayCounts.add_hour``, so every
historical model (``from_arrays`` over a projection) is byte-equal to
the one ``TipsyService`` serves over the same days.  Testing reads the
same feed, whole and per scheduled down-set (``actuals_window``), and
scores it as columns (``core.accuracy.ActualsTable``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..core.accuracy import ActualsTable, Slice
from ..core.base import IngressModel
from ..core.ensemble import SequentialEnsemble
from ..core.features import FEATURES_A, FEATURES_AL, FEATURES_AP
from ..core.geo_augment import GeoAugmentedModel
from ..core.historical import HistoricalModel
from ..core.naive_bayes import NaiveBayesModel
from ..core.oracle import oracle_models
from ..core.training import KEY_NAMES, DayCounts, KeyedTable, fold_keyed
from ..pipeline.aggregation import first_seen_groups
from ..pipeline.outages import OutageInference
from ..pipeline.records import FlowContext
from ..util.cache import LruDict
from .scenario import Scenario

#: windows kept per kind (feed, actuals): a run asks for one training
#: and one test window and asks for each again when the same runner runs
#: again (the paper tables' Tables 4-7 and Table 9 runs), and a sweep
#: asks for each of its windows once
_WINDOW_SLOTS = 2

NO_LINKS: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class WindowSpec:
    """A train/test window in whole days from the scenario origin."""

    train_start_day: int = 0
    train_days: int = 21
    test_days: int = 7

    def __post_init__(self) -> None:
        if min(self.train_days, self.test_days) < 1 or self.train_start_day < 0:
            raise ValueError(f"not whole train and test days from day 0: {self}")

    @property
    def train_hours(self) -> Tuple[int, int]:
        start = self.train_start_day * 24
        return start, start + self.train_days * 24

    @property
    def test_hours(self) -> Tuple[int, int]:
        start = (self.train_start_day + self.train_days) * 24
        return start, start + self.test_days * 24


@dataclass(frozen=True)
class FeedWindow:
    """A window of the feed: its counts, and the (n_links, n_hours) bytes
    per link and hour that ``OutageInference`` reads."""

    counts: DayCounts
    link_bytes: np.ndarray


@dataclass(frozen=True)
class ActualsWindow:
    """A window of the feed as test actuals: its keyed table (``k0..k4``
    the flow context, ``k5`` the link, ``value`` the bytes), and one per
    scheduled down-set over the hours that set was down."""

    total: KeyedTable
    by_downset: Dict[FrozenSet[int], KeyedTable]


@dataclass
class AccuracyBlock:
    """model name -> {k: accuracy}; one paper-table block."""

    rows: Dict[str, Dict[int, float]] = field(default_factory=dict)
    total_bytes: float = 0.0

    def get(self, model: str, k: int) -> float:
        return self.rows[model][k]

    def best_model(self, k: int, exclude_oracles: bool = True) -> str:
        candidates = {
            name: ks[k] for name, ks in self.rows.items()
            if not (exclude_oracles and name.startswith("Oracle"))
        }
        return max(candidates, key=candidates.get)


@dataclass
class EvaluationResult:
    """Everything the paper's tables and figures read."""

    window: WindowSpec
    overall: AccuracyBlock
    outages_all: AccuracyBlock
    outages_seen: AccuracyBlock
    outages_unseen: AccuracyBlock
    # the test window's keyed table, for figure-level analyses (e.g.
    # oracle-vs-k, Figure 5)
    overall_actuals: KeyedTable
    stats: Dict[str, float] = field(default_factory=dict)


class EvaluationRunner:
    """Runs the full §5 methodology over one scenario."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._n_links = len(self.scenario.wan.links)
        # scenarios are deterministic and read-only, so windows can be
        # reused across runs (the paper tables run one window twice)
        self._feed_cache: LruDict[Tuple[int, int], FeedWindow] = \
            LruDict(_WINDOW_SLOTS)
        self._actuals_cache: LruDict[Tuple[int, int], ActualsWindow] = \
            LruDict(_WINDOW_SLOTS)

    # -- model suite -----------------------------------------------------------

    def build_models(self, train_counts: DayCounts,
                     include_naive_bayes: bool = False) -> List[IngressModel]:
        """Train the paper's model suite (Table 2, plus Appendix A on demand)."""
        hist_a, hist_ap, hist_al = (
            HistoricalModel.from_arrays(train_counts.project(fs), fs)
            for fs in (FEATURES_A, FEATURES_AP, FEATURES_AL))
        models: List[IngressModel] = [
            hist_a, hist_ap, hist_al,
            GeoAugmentedModel(hist_al, self.scenario.wan, name="Hist_AL+G"),
            SequentialEnsemble([hist_ap, hist_al, hist_a],
                               name="Hist_AP/AL/A"),
            SequentialEnsemble([hist_al, hist_ap, hist_a],
                               name="Hist_AL/AP/A"),
        ]
        if include_naive_bayes:
            # Appendix A: not served; built from the finest-grain table
            table = train_counts.to_arrays()
            nb_a, nb_al = (NaiveBayesModel.from_arrays(table, fs)
                           for fs in (FEATURES_A, FEATURES_AL))
            models += [
                nb_a, nb_al,
                SequentialEnsemble([hist_al, nb_al], name="Hist_AL/NB_AL"),
            ]
        return models

    # -- windows ---------------------------------------------------------------------

    def feed_window(self, start_hour: int, end_hour: int) -> FeedWindow:
        """The feed's hours ``[start_hour, end_hour)`` folded into one
        ``DayCounts`` as ``TipsyService.ingest_hour`` folds a day's;
        cached and read-only, as :meth:`actuals_window`'s windows are."""
        cached = self._feed_cache.get((start_hour, end_hour))
        if cached is not None:
            return cached
        window = FeedWindow(DayCounts(), np.zeros(
            (self._n_links, end_hour - start_hour), dtype=np.float64))
        for columns in self.scenario.aggregated_hours(start_hour, end_hour):
            window.counts.add_hour(columns)
            window.link_bytes[:, columns.hour - start_hour] = np.bincount(
                columns.link_ids, weights=columns.bytes,
                minlength=self._n_links)
        self._feed_cache[(start_hour, end_hour)] = window
        return window

    def actuals_window(self, start_hour: int,
                       end_hour: int) -> ActualsWindow:
        """The feed's hours ``[start_hour, end_hour)`` folded as
        :meth:`feed_window` folds them, once whole and once per down-set
        of ``Scenario.scheduled_down_at``: the test side's ground truth,
        cached and read-only as :meth:`feed_window`'s windows are."""
        cached = self._actuals_cache.get((start_hour, end_hour))
        if cached is not None:
            return cached
        scenario = self.scenario
        total = DayCounts()
        hours_of: Dict[FrozenSet[int], List[KeyedTable]] = {}
        for columns in scenario.aggregated_hours(start_hour, end_hour):
            total.add_hour(columns)
            hours_of.setdefault(scenario.scheduled_down_at(columns.hour),
                                []).append(dict(zip(KEY_NAMES, (
                                    *columns[2:7], columns.link_ids)),
                                    value=columns.bytes))
        window = ActualsWindow(total.to_arrays(), {
            down: fold_keyed(hours, len(KEY_NAMES))
            for down, hours in hours_of.items()})
        self._actuals_cache[(start_hour, end_hour)] = window
        return window

    # -- scoring --------------------------------------------------------------------

    @staticmethod
    def _blocks(actuals: ActualsTable, parts: Sequence[np.ndarray],
                models: Sequence[IngressModel],
                ks: Sequence[int]) -> List[AccuracyBlock]:
        """One accuracy block per part of ``actuals`` (a row mask): first
        of the part's own oracles (perfect test knowledge, k-restricted),
        then of ``models``, which are asked once for every part."""
        values = actuals.columns["value"]
        shared = [(model, [actuals.hits(model, k) for k in ks])
                  for model in models]
        blocks: List[AccuracyBlock] = []
        for rows in parts:
            total = float(values[rows].sum())
            block = AccuracyBlock(total_bytes=total)
            scored: List[Tuple[IngressModel, List[np.ndarray]]] = [
                (oracle, [actuals.hits(oracle, k, rows) for k in ks])
                for oracle in oracle_models([{
                    name: column[rows]
                    for name, column in actuals.columns.items()}])]
            for model, hits in scored + shared:
                block.rows[model.name] = {
                    k: float(values[hit & rows].sum()) / total
                    if total > 0.0 else 0.0 for k, hit in zip(ks, hits)}
            blocks.append(block)
        return blocks

    def _overall(self, table: KeyedTable, models: Sequence[IngressModel],
                 ks: Sequence[int]) -> AccuracyBlock:
        """Every row of ``table`` scored with no link known down."""
        every = np.ones(len(table["value"]), dtype=bool)
        return self._blocks(ActualsTable([(table, NO_LINKS)]), [every],
                            models, ks)[0]

    # -- the full methodology ----------------------------------------------------------

    def run(
        self,
        window: Optional[WindowSpec] = None,
        include_naive_bayes: bool = False,
        ks: Sequence[int] = (1, 2, 3),
        outage_min_hours: int = 1,
        outage_max_hours: int = 24,
    ) -> EvaluationResult:
        """Train, test, partition, and score — one full evaluation."""
        window = window or WindowSpec()
        scenario = self.scenario
        train_lo, train_hi = window.train_hours
        test_lo, test_hi = window.test_hours
        if test_hi > scenario.horizon_hours:
            raise ValueError("window extends past the scenario horizon")

        # 1. training pass: the feed the service trains on
        train = self.feed_window(train_lo, train_hi)
        models = self.build_models(train.counts, include_naive_bayes)

        # 2. availability history: links with a qualifying inferred outage
        #    during training are "seen"
        train_inference = OutageInference(scenario.wan.link_ids,
                                          train.link_bytes)
        seen_links = train_inference.links_with_outage(
            0, train_hi - train_lo, outage_min_hours, outage_max_hours)

        # 3. per-flow byte-dominant training link (partitioning key)
        top1 = train.counts.top1_links()
        trained = np.array(list(top1), dtype=np.int64).reshape(
            -1, len(FlowContext._fields)).T
        top1_links = np.array([*top1.values(), -1], dtype=np.int64)
        seen_array = np.array(sorted(seen_links), dtype=np.int64)

        # 4. test pass: the feed's test hours, whole and per down-set
        test = self.actuals_window(test_lo, test_hi)

        # 5. outage slices: each down-set's rows whose byte-dominant link
        #    is down, under that prior; "seen" if it failed in training too
        slices: List[Slice] = []
        seen_parts = [np.zeros(0, dtype=bool)]
        for down, table in test.by_downset.items():
            if not down:
                continue
            # trained contexts first: a row's group is its context's
            # place in ``top1``, or past it when its context never trained
            _rep, group = first_seen_groups([
                np.concatenate([known, table[name]])
                for known, name in zip(trained, KEY_NAMES[:-1])])
            dominant = top1_links[np.minimum(group[len(top1):], len(top1))]
            affected = np.isin(dominant, np.array(sorted(down),
                                                  dtype=np.int64))
            if affected.any():
                slices.append(({name: column[affected]
                                for name, column in table.items()}, down))
                seen_parts.append(np.isin(dominant[affected], seen_array))
        seen = np.concatenate(seen_parts)

        # 6. score each partition beside its own oracles; the outage
        #    partitions share the models' answers
        outages_all, outages_seen, outages_unseen = self._blocks(
            ActualsTable(slices), [np.ones(len(seen), dtype=bool), seen, ~seen],
            models, ks)
        result = EvaluationResult(
            window=window,
            overall=self._overall(test.total, models, ks),
            outages_all=outages_all,
            outages_seen=outages_seen,
            outages_unseen=outages_unseen,
            overall_actuals=test.total,
        )
        result.stats = self._stats(result, seen_links, train.counts)
        return result

    @staticmethod
    def _stats(result: EvaluationResult, seen_links: FrozenSet[int],
               train_counts: DayCounts) -> Dict[str, float]:
        seen_bytes = result.outages_seen.total_bytes
        unseen_bytes = result.outages_unseen.total_bytes
        total_outage_bytes = seen_bytes + unseen_bytes
        return {
            "total_bytes": result.overall.total_bytes,
            "outage_bytes": total_outage_bytes,
            "seen_bytes": seen_bytes,
            "unseen_bytes": unseen_bytes,
            "unseen_fraction": (unseen_bytes / total_outage_bytes
                                if total_outage_bytes else 0.0),
            "seen_links": float(len(seen_links)),
            "train_tuples": float(len(train_counts)),
        }

    # -- staleness sweep (Figure 10) ------------------------------------------------

    def run_staleness(
        self,
        train_start_day: int,
        train_days: int,
        max_offset_days: int,
        ks: Sequence[int] = (1, 2, 3),
        include_naive_bayes: bool = False,
    ) -> Dict[int, Dict[str, Dict[int, float]]]:
        """Train once; score each later day separately (paper Figure 10).

        Returns ``{day offset: {model name: {k: accuracy}}}``.  Day
        offset 0 is the first day after training ends.  The arguments
        are a :class:`WindowSpec`'s, ``max_offset_days`` its test days,
        and raise its ``ValueError`` on less than a day or a start before
        day 0.
        """
        train_lo, train_hi = WindowSpec(train_start_day, train_days,
                                        max_offset_days).train_hours
        models = self.build_models(self.feed_window(train_lo, train_hi).counts,
                                   include_naive_bayes)

        out: Dict[int, Dict[str, Dict[int, float]]] = {}
        for offset in range(max_offset_days):
            day_lo = train_hi + offset * 24
            day_hi = day_lo + 24
            if day_hi > self.scenario.horizon_hours:
                break
            out[offset] = self._overall(
                self.actuals_window(day_lo, day_hi).total, models, ks).rows
        return out
