"""Training plumbing: byte-count accumulation and model fitting.

Training every TIPSY model is a single pass over byte-weighted
(flow tuple, link) observations (paper §3.3, Table 3).  The counts are
collected at the finest granularity once; each model then trains from
the projection onto its own feature set, so a whole model suite costs
one streaming pass plus cheap in-memory fits.

:class:`DayCounts` is the one finest-grain counts type: a keyed columnar
table fed ``AggColumns`` and folded, projected, snapshotted and restored
without per-row Python — one per rolling-window day in the service, one
per train window, test slice or trace in the offline paper tables, and
every historical model trains from its projection through
``HistoricalModel.from_arrays``.  :func:`fold_keyed` is the group-and-sum
a projection and the window fold behind each retrain are made of, and
what an arriving hour's fold equals: the day table finds the rows an
hour's keys already have by binary search of the sorted codes
(``SortedTable``), and an hour that brings no new keys rebuilds only
the value column.  The dict form it replaced is the record-path
reference it is tested bit for bit against
(``tests/core/counts_oracle.py``), as ``aggregate_hour`` is for
``aggregate_hour_columns``.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterator, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..pipeline.aggregation import SortedTable, first_seen_sums
from ..pipeline.records import AggColumns, FlowContext
from ..store.codec import key_column_names

if TYPE_CHECKING:  # avoids the pipeline <-> core import cycle at runtime
    from numpy.typing import ArrayLike

    from .features import FeatureSet

#: a keyed table as ``store.codec`` lays it out: ``k0..k<n-1>`` (int64)
#: and ``value`` (float64), aligned, one row per distinct key
KeyedTable = Dict[str, np.ndarray]

#: key columns of the day table, and of every (flow context, link) table
#: read beside it: ``k0..k4`` the FlowContext fields, ``k5`` the link id
KEY_NAMES = key_column_names(len(FlowContext._fields) + 1)

_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_VALUES = np.empty(0, dtype=np.float64)
_NO_RANGES = ((0, 0),) * len(KEY_NAMES)


def fold_keyed(tables: Sequence[Mapping[str, np.ndarray]],
               width: int) -> KeyedTable:
    """Stack ``width``-key tables in order and sum each distinct key.

    Rows come out in first-seen order and every sum is taken in row
    order (:func:`first_seen_sums`), exactly as a serial
    ``sums.get(key, 0.0) + value`` walk over the stacked rows would — so
    folding one already-folded table changes nothing, and folding the
    window's per-day tables in day order equals walking them day by day.
    No table handed in is written to; none gives an empty table.
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
        self._table: KeyedTable = fold_keyed((), len(KEY_NAMES))
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
                for name, key in zip(KEY_NAMES, keys)]
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
        and appended.  Only what changes is rebuilt, never written in
        place: an hour with no new keys adds onto a copy of the value
        column and keeps the key columns and the row index."""
        if not columns.n_records:
            return
        keys = [column.astype(np.int64, casting="same_kind", copy=False)
                for column in (*columns[2:7], columns.link_ids)]
        codes = self._codes(keys)
        if codes is None:       # first hour, or a value outgrew a range
            codes = self._reindex(keys)
        if codes is None:
            hour = dict(zip(KEY_NAMES, keys), value=columns.bytes)
            self._table = fold_keyed((self._table, hour), len(KEY_NAMES))
            return
        held, rows = self._index.find(codes)
        if held.all():          # no new keys: only the sums move
            table = dict(self._table, value=self._table["value"].copy())
        else:
            new = np.flatnonzero(~held)
            rep, sums = first_seen_sums([codes[new]], columns.bytes[new])
            new = new[rep]
            self._index.add(codes[new], len(self) + np.arange(
                len(new), dtype=np.int64))
            table = {name: np.concatenate([self._table[name], key[new]])
                     for name, key in zip(KEY_NAMES, keys)}
            table["value"] = np.concatenate([self._table["value"], sums])
        np.add.at(table["value"], rows[held], columns.bytes[held])
        self._table = table

    def project(self, feature_set: "FeatureSet") -> KeyedTable:
        """The table summed onto a model's feature grain, as columns.

        ``k0..k<n-1>`` the grain's fields, ``k<n>`` the link id and
        ``value`` the bytes, one row per distinct (feature key, link) in
        first-seen order with bytes added in row order — what
        ``HistoricalModel.from_arrays`` builds a model from.  The
        rolling-window service projects each completed day once and
        folds the window's projections into every retrain.
        """
        columns = [self._table[KEY_NAMES[FlowContext._fields.index(name)]]
                   for name in feature_set.fields]
        columns.append(self._table[KEY_NAMES[-1]])
        grain = dict(zip(key_column_names(len(columns)), columns),
                     value=self._table["value"])
        return fold_keyed((grain,), len(columns))

    def __len__(self) -> int:
        """Distinct (flow context, link) keys held."""
        return len(self._table["value"])

    def rows(self) -> Iterator[Tuple[FlowContext, int, float]]:
        """``(flow context, link id, bytes)`` per row, in row order."""
        *fields, links = (self._table[name].tolist() for name in KEY_NAMES)
        return zip(map(FlowContext._make, zip(*fields)), links,
                   self._table["value"].tolist())

    def top1_links(self) -> Dict[FlowContext, int]:
        """Each flow context's byte-dominant link (the §5.3 partitioning
        key), equal bytes going to the lower link id: with the rows
        ranked by bytes down and link up, each context's first row."""
        *contexts, links = (self._table[name] for name in KEY_NAMES)
        values = self._table["value"]
        order = np.lexsort((links, -values))
        rep, _ = first_seen_sums([column[order] for column in contexts],
                                 values[order])
        best = order[rep]
        return dict(zip(map(FlowContext._make, zip(*(
            column[best].tolist() for column in contexts))),
            links[best].tolist()))

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
        keys = [arrays[name] for name in KEY_NAMES]
        values = arrays["value"]
        if values.ndim != 1 or values.dtype != np.float64 or any(
                column.shape != values.shape or column.dtype != np.int64
                for column in keys):
            raise ValueError("not aligned int64 key / float64 value vectors")
        if not (np.isfinite(values) & (values > 0.0)).all():
            raise ValueError("byte counts must be finite and positive")
        table = cls()
        table._table = dict(zip(KEY_NAMES, keys), value=values)
        return table

    @classmethod
    def fold(cls, contexts: "ArrayLike", link_ids: "ArrayLike",
             values: "ArrayLike") -> "DayCounts":
        """The table of aligned (flow context, link id, bytes) rows —
        ``contexts`` one row of the five fields each — folded as
        :func:`fold_keyed` folds: keys in first-seen order, each summed
        in row order.  Bytes must be positive, as :meth:`from_arrays`
        requires."""
        fields = np.asarray(contexts, dtype=np.int64).reshape(
            -1, len(FlowContext._fields))
        keys = (*fields.T, np.asarray(link_ids, dtype=np.int64))
        table = dict(zip(KEY_NAMES, keys),
                     value=np.asarray(values, dtype=np.float64))
        return cls.from_arrays(fold_keyed((table,), len(KEY_NAMES)))
