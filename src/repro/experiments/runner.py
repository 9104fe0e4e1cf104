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
streamed ground truth (``collect_window``), per scheduled down-set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..core.accuracy import ActualsMap, score_bytes
from ..core.base import IngressModel
from ..core.ensemble import SequentialEnsemble
from ..core.features import FEATURES_A, FEATURES_AL, FEATURES_AP
from ..core.geo_augment import GeoAugmentedModel
from ..core.historical import HistoricalModel
from ..core.naive_bayes import NaiveBayesModel
from ..core.oracle import oracle_models
from ..core.training import DayCounts, KeyedTable, fold_keyed
from ..pipeline.outages import OutageInference
from ..pipeline.records import FlowContext
from .scenario import HourColumns, Scenario

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


class _StreamAccumulator:
    """Accumulates streamed columns into keyed (flow row, link) -> bytes
    tables (``k0`` flow row, ``k1`` link, ``value``), one for the window
    and one per down-set; an expansion epoch's hours are summed first, so
    the availability context of every row is known."""

    def __init__(self) -> None:
        self.by_downset: Dict[FrozenSet[int], KeyedTable] = {}
        self.total: KeyedTable = fold_keyed((), 2)
        # closed epochs in stream order: (down-set, non-zero rows)
        self._epochs: List[Tuple[FrozenSet[int], KeyedTable]] = []
        self._epoch_rows: Optional[np.ndarray] = None
        self._epoch_links: Optional[np.ndarray] = None
        self._epoch_sum: Optional[np.ndarray] = None
        self._epoch_down: FrozenSet[int] = NO_LINKS

    def add_hour(self, cols: HourColumns, down: FrozenSet[int]) -> None:
        if (self._epoch_rows is not cols.flow_rows
                or down != self._epoch_down):
            self._close_epoch()
            self._epoch_rows = cols.flow_rows
            self._epoch_links = cols.link_ids
            self._epoch_sum = np.zeros(len(cols.flow_rows))
            self._epoch_down = down
        self._epoch_sum += cols.sampled_bytes

    def _close_epoch(self) -> None:
        rows, links, sums = (self._epoch_rows, self._epoch_links,
                             self._epoch_sum)
        if rows is None or links is None or sums is None:
            return
        nz = sums > 0.0
        self._epochs.append((self._epoch_down, {
            "k0": rows[nz], "k1": links[nz], "value": sums[nz]}))
        self._epoch_sum = None

    def finish(self) -> None:
        """Fold the epochs into ``total`` and ``by_downset``: each key's
        bytes summed in stream order, keys (and down-sets) first seen
        first, as a ``sums.get(key, 0.0) + value`` walk would leave them."""
        self._close_epoch()
        self.total = fold_keyed([table for _, table in self._epochs], 2)
        epochs_of: Dict[FrozenSet[int], List[KeyedTable]] = {}
        for down, table in self._epochs:
            epochs_of.setdefault(down, []).append(table)
        self.by_downset = {down: fold_keyed(tables, 2)
                           for down, tables in epochs_of.items()}
        self._epochs = []


@dataclass(frozen=True)
class FeedWindow:
    """A window of the feed: its counts, and the (n_links, n_hours) bytes
    per link and hour that ``OutageInference`` reads."""

    counts: DayCounts
    link_bytes: np.ndarray


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
    # actuals for figure-level analyses (e.g. oracle-vs-k, Figure 5)
    overall_actuals: Dict[FlowContext, Dict[int, float]]
    stats: Dict[str, float] = field(default_factory=dict)


class EvaluationRunner:
    """Runs the full §5 methodology over one scenario."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._n_links = len(self.scenario.wan.links)
        # scenarios are deterministic and read-only, so window collections
        # can be reused across runs (Appendix B sweeps share windows)
        self._window_cache: Dict[Tuple[int, int], _StreamAccumulator] = {}
        self._feed_cache: Dict[Tuple[int, int], FeedWindow] = {}

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
        cached and read-only, as :meth:`collect_window`'s windows are."""
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

    def collect_window(self, start_hour: int,
                       end_hour: int) -> _StreamAccumulator:
        """Stream a window into per-downset (row, link) byte tables: the
        test side's ground truth.

        Cached per (start, end): the scenario is deterministic, so
        repeated windows (Appendix B sweeps) are free after the first
        pass.  Callers must treat the result as read-only.
        """
        cached = self._window_cache.get((start_hour, end_hour))
        if cached is not None:
            return cached
        acc = _StreamAccumulator()
        scenario = self.scenario
        for cols in scenario.stream(start_hour, end_hour):
            acc.add_hour(cols, scenario.scheduled_down_at(cols.hour))
        acc.finish()
        self._window_cache[(start_hour, end_hour)] = acc
        return acc

    # -- actuals shaping -----------------------------------------------------------

    def _actuals_from_pairs(self, pairs: KeyedTable,
                            row_filter: Optional[np.ndarray] = None
                            ) -> Dict[FlowContext, Dict[int, float]]:
        contexts = self.scenario.flow_contexts
        rows, links, values = pairs["k0"], pairs["k1"], pairs["value"]
        if row_filter is not None:
            keep = row_filter[rows]
            rows, links, values = rows[keep], links[keep], values[keep]
        out: Dict[FlowContext, Dict[int, float]] = {}
        for row, link, bytes_ in zip(rows.tolist(), links.tolist(),
                                     values.tolist()):
            by_link = out.setdefault(contexts[row], {})
            by_link[link] = by_link.get(link, 0.0) + bytes_
        return out

    # -- scoring --------------------------------------------------------------------

    def _block(
        self,
        slices: Sequence[Tuple[ActualsMap, FrozenSet[int]]],
        models: Sequence[IngressModel],
        ks: Sequence[int],
    ) -> AccuracyBlock:
        """Accuracy across several (actuals, availability-prior) slices:
        first of the slices' own oracles (perfect test knowledge,
        k-restricted), then of ``models``."""
        block = AccuracyBlock()
        block.total_bytes = sum(
            sum(by_link.values())
            for actuals, _unavailable in slices
            for by_link in actuals.values()
        )
        oracles = oracle_models(actuals for actuals, _unavailable in slices)
        for model in [*oracles, *models]:
            per_k: Dict[int, float] = {}
            for k in ks:
                matched = 0.0
                total = 0.0
                for actuals, unavailable in slices:
                    m, t = score_bytes(actuals, model, k, unavailable)
                    matched += m
                    total += t
                per_k[k] = matched / total if total > 0.0 else 0.0
            block.rows[model.name] = per_k
        return block

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
        contexts = scenario.flow_contexts
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
        top1_by_row = np.array([top1.get(context, -1) for context in contexts],
                               dtype=np.int64)
        seen_array = np.array(sorted(seen_links), dtype=np.int64)

        # 4. test pass
        test_acc = self.collect_window(test_lo, test_hi)

        # 5. slices
        overall_actuals = self._actuals_from_pairs(test_acc.total)

        all_slices: List[Tuple[ActualsMap, FrozenSet[int]]] = []
        seen_slices: List[Tuple[ActualsMap, FrozenSet[int]]] = []
        unseen_slices: List[Tuple[ActualsMap, FrozenSet[int]]] = []
        for down, pairs in test_acc.by_downset.items():
            if not down:
                continue
            down_array = np.array(sorted(down), dtype=np.int64)
            affected = np.isin(top1_by_row, down_array)
            if not affected.any():
                continue
            actuals = self._actuals_from_pairs(pairs, row_filter=affected)
            if not actuals:
                continue
            all_slices.append((actuals, down))
            seen_mask = affected & np.isin(top1_by_row, seen_array)
            for mask, slices in ((seen_mask, seen_slices),
                                 (affected & ~seen_mask, unseen_slices)):
                part = self._actuals_from_pairs(pairs, row_filter=mask)
                if part:
                    slices.append((part, down))

        # 6. score each partition beside its own oracles
        result = EvaluationResult(
            window=window,
            overall=self._block([(overall_actuals, NO_LINKS)], models, ks),
            outages_all=self._block(all_slices, models, ks),
            outages_seen=self._block(seen_slices, models, ks),
            outages_unseen=self._block(unseen_slices, models, ks),
            overall_actuals=overall_actuals,
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
        offset 0 is the first day after training ends.
        """
        train_hi = (train_start_day + train_days) * 24
        models = self.build_models(
            self.feed_window(train_start_day * 24, train_hi).counts,
            include_naive_bayes)

        out: Dict[int, Dict[str, Dict[int, float]]] = {}
        for offset in range(max_offset_days):
            day_lo = train_hi + offset * 24
            day_hi = day_lo + 24
            if day_hi > self.scenario.horizon_hours:
                break
            actuals = self._actuals_from_pairs(
                self.collect_window(day_lo, day_hi).total)
            out[offset] = self._block([(actuals, NO_LINKS)], models, ks).rows
        return out
