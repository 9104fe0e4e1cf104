"""Training plumbing: byte-count accumulation and model fitting.

Training every TIPSY model is a single pass over byte-weighted
(flow tuple, link) observations (paper §3.3, Table 3).  The counts are
collected at the finest granularity once; each model then trains from
the projection onto its own feature set, so a whole model suite costs
one streaming pass plus cheap in-memory fits.

:class:`DayCounts` holds them for the serving path — one keyed columnar
table per rolling-window day, fed ``AggColumns`` and folded, projected,
snapshotted and restored without per-row Python.
:class:`CountsAccumulator` is the dict form the offline paper-table
runner and ``counts_from_trace`` fit from; its ``consume_hour`` +
``project`` + ``to_arrays`` are the record-path reference ``DayCounts``
is tested bit for bit against, as ``aggregate_hour`` is for
``aggregate_hour_columns``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from ..pipeline.aggregation import first_seen_sums
from ..pipeline.records import AggColumns, AggRecord, FlowContext
from ..store.codec import encode_keyed_table, key_column_names
from .base import TrainableModel

if TYPE_CHECKING:  # avoids the pipeline <-> core import cycle at runtime
    from .features import FeatureSet

#: one day's counts projected onto a feature grain: key -> link -> bytes
GrainProjection = Dict[Tuple[object, ...], Dict[int, float]]

#: columns of the keyed table: the 5 FlowContext fields + link id
_KEY_NAMES = key_column_names(len(FlowContext._fields) + 1)


class DayCounts:
    """One window day's (flow context, link) -> bytes, as a keyed table.

    Seven aligned columns — ``k0..k4`` the context fields, ``k5`` the
    link id (``int64``), ``value`` the bytes (``float64``) — one row per
    distinct key in first-seen order: a snapshot's ``day_counts``
    segment, held in memory as it is stored.  Each hour is folded in as
    it arrives (:func:`first_seen_sums` over the table's rows followed
    by the hour's), so a key's sum grows in arrival order exactly as
    ``counts.get(key, 0.0) + bytes`` would, and folding a folded (or
    restored) table changes nothing.  Arrays handed in are only read.
    """

    def __init__(self) -> None:
        self._keys: Tuple[np.ndarray, ...] = tuple(
            np.empty(0, dtype=np.int64) for _ in _KEY_NAMES)
        self._values = np.empty(0, dtype=np.float64)

    def add_hour(self, columns: AggColumns) -> None:
        """Fold one aggregated hour into the table."""
        if not columns.n_records:
            return
        keys = [np.concatenate(pair, dtype=np.int64) for pair in zip(
            self._keys, (*columns[2:7], columns.link_ids))]
        rep, self._values = first_seen_sums(keys, np.concatenate(
            (self._values, columns.bytes), dtype=np.float64))
        self._keys = tuple(column[rep] for column in keys)

    def project(self, feature_set: "FeatureSet") -> GrainProjection:
        """The table summed onto a model's feature grain.

        ``{feature key: {link_id: bytes}}`` with keys, links and the
        order bytes are added in all following row order — the dict
        :meth:`CountsAccumulator.project` builds from the same rows.
        Rolling-window trainers project each day once and feed models
        via ``observe_aggregate``, so a daily delta costs one pass over
        the day instead of one over the window.
        """
        grain = [self._keys[FlowContext._fields.index(name)]
                 for name in feature_set.fields]
        links = self._keys[-1]
        rep, sums = first_seen_sums((*grain, links), self._values)
        out: GrainProjection = {}
        for key, link_id, bytes_ in zip(
                zip(*(column[rep].tolist() for column in grain)),
                links[rep].tolist(), sums.tolist()):
            out.setdefault(key, {})[link_id] = bytes_
        return out

    # -- columnar persistence ----------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The table as stored (``repro.store``): ``k0..k5``, ``value``.

        Row order is part of the format — :meth:`project` and every
        later fold follow it, so a restored table must keep it to behave
        bit-identically.
        """
        return {**dict(zip(_KEY_NAMES, self._keys)), "value": self._values}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "DayCounts":
        """Adopt :meth:`to_arrays` output.

        Raises ``KeyError``/``ValueError`` on a column set that could not
        have come from it — snapshot readers treat that as corruption
        and degrade to a rebuild.
        """
        keys = tuple(arrays[name] for name in _KEY_NAMES)
        values = arrays["value"]
        if values.ndim != 1 or values.dtype != np.float64 or any(
                column.shape != values.shape or column.dtype != np.int64
                for column in keys):
            raise ValueError("not aligned int64 key / float64 value vectors")
        if not (np.isfinite(values) & (values > 0.0)).all():
            raise ValueError("byte counts must be finite and positive")
        table = cls()
        table._keys, table._values = keys, values
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
        accumulator's contents.  Rolling-window trainers project each
        day once and feed models via ``observe_aggregate``, so a daily
        delta costs one pass over the day instead of one over the
        window.
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
