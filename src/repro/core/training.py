"""Training plumbing: byte-count accumulation and model fitting.

Training every TIPSY model is a single pass over byte-weighted
(flow tuple, link) observations (paper §3.3, Table 3).  The counts are
collected at the finest granularity once; each model then trains from
the projection onto its own feature set, so a whole model suite costs
one streaming pass plus cheap in-memory fits.

:class:`DayCounts` holds them for the serving path — one keyed columnar
table per rolling-window day, fed ``AggColumns`` and folded, projected,
snapshotted and restored without per-row Python; :func:`fold_keyed` is
the group-and-sum a projection and the window fold behind each retrain
are made of, and what an arriving hour's fold equals: the day table finds
the rows an hour's keys already have by binary search (``SortedTable``).
:class:`CountsAccumulator` is the dict form the offline paper-table
runner and ``counts_from_trace`` fit from; its ``consume_hour`` +
``project`` + ``to_arrays`` are the record-path reference ``DayCounts``
is tested bit for bit against, as ``aggregate_hour`` is for
``aggregate_hour_columns``.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterable, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..pipeline.aggregation import SortedTable, first_seen_sums
from ..pipeline.records import AggColumns, AggRecord, FlowContext
from ..store.codec import encode_keyed_table, key_column_names
from .base import TrainableModel

if TYPE_CHECKING:  # avoids the pipeline <-> core import cycle at runtime
    from .features import FeatureSet

#: a keyed table as ``store.codec`` lays it out: ``k0..k<n-1>`` (int64)
#: and ``value`` (float64), aligned, one row per distinct key
KeyedTable = Dict[str, np.ndarray]

#: one day's counts projected onto a feature grain: key -> link -> bytes
GrainProjection = Dict[Tuple[object, ...], Dict[int, float]]

#: columns of the day table: the 5 FlowContext fields + link id
_KEY_NAMES = key_column_names(len(FlowContext._fields) + 1)

_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_VALUES = np.empty(0, dtype=np.float64)
_NO_RANGES = ((0, 0),) * len(_KEY_NAMES)


def fold_keyed(tables: Sequence[Mapping[str, np.ndarray]],
               width: int) -> KeyedTable:
    """Stack ``width``-key tables in order and sum each distinct key.

    Rows come out in first-seen order and every sum is taken in row
    order (:func:`first_seen_sums`), exactly as a serial
    ``sums.get(key, 0.0) + value`` walk over the stacked rows would — so
    folding one already-folded table changes nothing, and folding the
    window's per-day tables in day order equals ``observe_aggregate``-ing
    them day by day.  No table handed in is written to; none gives an
    empty table.
    """
    names = key_column_names(width)
    keys = [np.concatenate([_NO_KEYS, *(table[name] for table in tables)],
                           dtype=np.int64) for name in names]
    rep, sums = first_seen_sums(keys, np.concatenate(
        [_NO_VALUES, *(table["value"] for table in tables)],
        dtype=np.float64))
    folded = {name: column[rep] for name, column in zip(names, keys)}
    folded["value"] = sums
    return folded


class DayCounts:
    """One window day's (flow context, link) -> bytes, as a keyed table.

    Seven aligned columns — ``k0..k4`` the context fields, ``k5`` the
    link id (``int64``), ``value`` the bytes (``float64``) — one row per
    distinct key in first-seen order: a snapshot's ``day_counts``
    segment, held in memory as it is stored.  Each hour is folded in as
    it arrives, to the table :func:`fold_keyed` over the table's rows
    followed by the hour's would give, so a key's sum grows in arrival
    order exactly as ``counts.get(key, 0.0) + bytes`` would, and folding
    a folded (or restored) table changes nothing.  Arrays handed in or
    out are only read.
    """

    def __init__(self) -> None:
        self._table: KeyedTable = fold_keyed((), len(_KEY_NAMES))
        # row code -> row number; a code is mixed-radix over one fixed
        # (low, radix) range per key column, and radix 0 holds no value
        self._index = SortedTable()
        self._ranges = _NO_RANGES

    def _codes(self, keys: Sequence[np.ndarray]) -> Optional[np.ndarray]:
        """One int64 per row over ``_ranges``; None if a value is outside."""
        codes = np.zeros(len(keys[0]), dtype=np.int64)
        for key, (low, radix) in zip(keys, self._ranges):
            digit = key - low
            if digit.min() < 0 or digit.max() >= radix:
                return None
            codes = codes * radix + digit
        return codes

    def _reindex(self, keys: Sequence[np.ndarray]) -> Optional[np.ndarray]:
        """Index the table's rows over ranges three times what it and an
        hour's ``keys`` span; the hour's codes, or None (and no ranges)
        when such ranges do not fit 62 bits."""
        both = [np.concatenate([self._table[name], key])
                for name, key in zip(_KEY_NAMES, keys)]
        self._ranges, room = [], 2 ** 62
        for column in both:
            low, high = int(column.min()), int(column.max())
            span = high - low + 1
            self._ranges.append((max(low - span, -2 ** 63), 3 * span))
            room //= 3 * span
        if not room:
            self._ranges = _NO_RANGES
            return None
        codes, held = self._codes(both), len(self._table["value"])
        self._index = SortedTable()
        self._index.add(codes[:held], np.arange(held, dtype=np.int64))
        return codes[held:]

    def add_hour(self, columns: AggColumns) -> None:
        """Fold one aggregated hour into the table: rows whose key it
        holds are added onto their sums in row order, the rest grouped
        and appended.  Columns are rebuilt, never written in place."""
        if not columns.n_records:
            return
        keys = [column.astype(np.int64, casting="same_kind", copy=False)
                for column in (*columns[2:7], columns.link_ids)]
        codes = self._codes(keys)
        if codes is None:       # first hour, or a value outgrew a range
            codes = self._reindex(keys)
        if codes is None:
            hour = dict(zip(_KEY_NAMES, keys), value=columns.bytes)
            self._table = fold_keyed((self._table, hour), len(_KEY_NAMES))
            return
        held, rows = self._index.find(codes)
        new = np.flatnonzero(~held)
        rep, sums = first_seen_sums([codes[new]], columns.bytes[new])
        new = new[rep]
        self._index.add(codes[new], len(self._table["value"]) + np.arange(
            len(new), dtype=np.int64))
        table = {name: np.concatenate([self._table[name], key[new]])
                 for name, key in zip(_KEY_NAMES, keys)}
        table["value"] = np.concatenate([self._table["value"], sums])
        np.add.at(table["value"], rows[held], columns.bytes[held])
        self._table = table

    def project(self, feature_set: "FeatureSet") -> KeyedTable:
        """The table summed onto a model's feature grain, as columns.

        ``k0..k<n-1>`` the grain's fields, ``k<n>`` the link id and
        ``value`` the bytes, one row per distinct (feature key, link) in
        first-seen order with bytes added in row order — the sums, keys
        and per-key link order :meth:`CountsAccumulator.project` holds
        as a nested dict.  The rolling-window service projects each
        completed day once and folds the window's projections into
        every retrain.
        """
        columns = [self._table[_KEY_NAMES[FlowContext._fields.index(name)]]
                   for name in feature_set.fields]
        columns.append(self._table[_KEY_NAMES[-1]])
        grain = dict(zip(key_column_names(len(columns)), columns),
                     value=self._table["value"])
        return fold_keyed((grain,), len(columns))

    # -- columnar persistence ----------------------------------------------

    def to_arrays(self) -> KeyedTable:
        """The table as stored (``repro.store``): ``k0..k5``, ``value``.

        Row order is part of the format — :meth:`project` and every
        later fold follow it, so a restored table must keep it to behave
        bit-identically.
        """
        return dict(self._table)

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "DayCounts":
        """Adopt :meth:`to_arrays` output.

        Raises ``KeyError``/``ValueError`` on a column set that could not
        have come from it — snapshot readers treat that as corruption
        and report the day lost.
        """
        keys = [arrays[name] for name in _KEY_NAMES]
        values = arrays["value"]
        if values.ndim != 1 or values.dtype != np.float64 or any(
                column.shape != values.shape or column.dtype != np.int64
                for column in keys):
            raise ValueError("not aligned int64 key / float64 value vectors")
        if not (np.isfinite(values) & (values > 0.0)).all():
            raise ValueError("byte counts must be finite and positive")
        table = cls()
        table._table = dict(zip(_KEY_NAMES, keys), value=values)
        return table


class CountsAccumulator:
    """Finest-grain (flow context, link) -> bytes accumulator.

    Sits directly on the aggregated hourly stream: one
    :meth:`consume_hour` per hour of :class:`AggRecord`, per-key sums
    accumulated in input order.
    """

    def __init__(self):
        self.counts: Dict[Tuple[FlowContext, int], float] = {}

    def consume_hour(self, hour: int, records: Sequence[AggRecord]) -> None:
        counts = self.counts
        for record in records:
            key = (record.context, record.link_id)
            counts[key] = counts.get(key, 0.0) + record.bytes

    def add(self, context: FlowContext, link_id: int, bytes_: float) -> None:
        if bytes_ <= 0.0:
            return
        key = (context, link_id)
        self.counts[key] = self.counts.get(key, 0.0) + bytes_

    # -- columnar persistence ----------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The accumulated counts as :meth:`DayCounts.to_arrays` columns.

        One row per (flow context, link) key, in accumulation order:
        ``k0..k4`` are the context fields, ``k5`` the link id, ``value``
        the byte count.
        """
        flat: Dict[Tuple[int, ...], float] = {
            (*context, link_id): bytes_
            for (context, link_id), bytes_ in self.counts.items()}
        return encode_keyed_table(flat, len(_KEY_NAMES))

    def total_bytes(self) -> float:
        return sum(self.counts.values())

    def __len__(self) -> int:
        return len(self.counts)

    # -- consumers -------------------------------------------------------------

    def fit(self, models: Iterable[TrainableModel]) -> None:
        """Train models from the accumulated counts (single pass each)."""
        models = list(models)
        for (context, link_id), bytes_ in self.counts.items():
            for model in models:
                model.observe(context, link_id, bytes_)
        for model in models:
            model.finalize()

    def project(self, feature_set: "FeatureSet") -> GrainProjection:
        """Aggregate the counts onto a model's feature grain.

        Returns ``{feature key: {link_id: bytes}}``, folding contexts in
        accumulation order — a deterministic function of this
        accumulator's contents.  The offline form of
        :meth:`DayCounts.project`: feeding a window's projections to
        ``observe_aggregate`` day by day trains the models the serving
        path folds from columns.
        """
        key_of = feature_set.key
        out: GrainProjection = {}
        for (context, link_id), bytes_ in self.counts.items():
            links = out.setdefault(key_of(context), {})
            links[link_id] = links.get(link_id, 0.0) + bytes_
        return out

    def actuals(self) -> Dict[FlowContext, Dict[int, float]]:
        """Reshape into the evaluation :data:`ActualsMap` layout."""
        out: Dict[FlowContext, Dict[int, float]] = {}
        for (context, link_id), bytes_ in self.counts.items():
            # (context, link) keys are unique, so a straight assignment
            # into the per-context dict suffices — no re-lookup needed
            out.setdefault(context, {})[link_id] = bytes_
        return out

    def top1_links(self) -> Dict[FlowContext, int]:
        """Each flow's byte-dominant link (partitioning key in §5.3)."""
        best: Dict[FlowContext, Tuple[float, int]] = {}
        for (context, link_id), bytes_ in self.counts.items():
            current = best.get(context)
            if current is None or (bytes_, -link_id) > (current[0], -current[1]):
                best[context] = (bytes_, link_id)
        return {context: link for context, (_b, link) in best.items()}
