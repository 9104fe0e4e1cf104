"""The test side's streamed ground truth, kept as the feed's oracle.

The evaluation once read its test actuals from ``Scenario.stream``
rather than from the feed: ``collect_window`` summed each expansion
epoch's hours as arrays and folded the epochs into keyed (flow row,
link) -> bytes tables, one for the window and one per scheduled
down-set (:class:`_StreamAccumulator`), and ``_actuals_from_pairs``
named each row by its flow's context for the dict scorer
(``tests/core/accuracy_oracle.py``).  The code is kept as the runner
had it, but for one thing: each epoch is folded in as it closes, not
all of them at the end, so that a paper-scale window holds its tables
and one epoch, not every epoch.  ``tests/experiments/test_runner.py``
holds it to a per-pair dictionary walk, and holds
``EvaluationRunner.actuals_window`` — the feed's hours folded per
down-set — to it, key for key and byte for byte;
``feed_reference.assert_feed_is_the_walk`` holds the training window
to it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.core.training import KeyedTable, fold_keyed
from repro.experiments.scenario import HourColumns, Scenario
from repro.pipeline.records import FlowContext

NO_LINKS: FrozenSet[int] = frozenset()


class _StreamAccumulator:
    """Accumulates streamed columns into keyed (flow row, link) -> bytes
    tables (``k0`` flow row, ``k1`` link, ``value``), one for the window
    and one per down-set; an expansion epoch's hours are summed first, so
    the availability context of every row is known, and each closed
    epoch is folded into both tables at once, so that no more than one
    epoch is ever held beside them."""

    def __init__(self) -> None:
        self.by_downset: Dict[FrozenSet[int], KeyedTable] = {}
        self.total: KeyedTable = fold_keyed((), 2)
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
        """Fold the open epoch's non-zero rows into ``total`` and its
        down-set's table: each key's bytes summed in stream order, keys
        (and down-sets) first seen first, as a ``sums.get(key, 0.0) +
        value`` walk over the epochs would leave them."""
        rows, links, sums = (self._epoch_rows, self._epoch_links,
                             self._epoch_sum)
        if rows is None or links is None or sums is None:
            return
        nz = sums > 0.0
        epoch = {"k0": rows[nz], "k1": links[nz], "value": sums[nz]}
        self.total = fold_keyed((self.total, epoch), 2)
        held = self.by_downset.get(self._epoch_down, fold_keyed((), 2))
        self.by_downset[self._epoch_down] = fold_keyed((held, epoch), 2)
        self._epoch_sum = None

    def finish(self) -> None:
        """Fold the last epoch in."""
        self._close_epoch()


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
