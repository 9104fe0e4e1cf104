"""The test side's streamed ground truth, kept as the feed's oracle.

The evaluation once read its test actuals from ``Scenario.stream``
rather than from the feed: ``collect_window`` summed each expansion
epoch's hours as arrays and folded the epochs into keyed (flow row,
link) -> bytes tables, one for the window and one per scheduled
down-set (:class:`_StreamAccumulator`), and ``_actuals_from_pairs``
named each row by its flow's context for the dict scorer
(``tests/core/accuracy_oracle.py``).  The code is kept as the runner
had it.  ``tests/experiments/test_runner.py`` holds it to a per-pair
dictionary walk, and holds ``EvaluationRunner.actuals_window`` — the
feed's hours folded per down-set — to it, key for key and byte for
byte; ``feed_reference.assert_feed_is_the_walk`` holds the training
window to it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.training import KeyedTable, fold_keyed
from repro.experiments.scenario import HourColumns, Scenario
from repro.pipeline.records import FlowContext

NO_LINKS: FrozenSet[int] = frozenset()


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


class StreamWindows:
    """``collect_window`` and ``_actuals_from_pairs`` over one scenario,
    with the window cache the runner kept."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._window_cache: Dict[Tuple[int, int], _StreamAccumulator] = {}

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
