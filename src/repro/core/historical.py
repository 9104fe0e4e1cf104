"""Historical models (paper §3.3.1).

``p(l | f) = B(f, l) / B(f)`` — the byte-weighted empirical distribution
of ingress links per flow tuple.  Training is a single counting pass;
prediction is a lookup, exactly the O(n)/O(1) costs of paper Table 3.

The defining limitation (and strength) is the absence of transfer
learning: a link never observed for a tuple can never be predicted for
it, and a tuple never observed yields no prediction at all — which is why
the ensembles of :mod:`repro.core.ensemble` exist.

A trained model is a sorted table: :meth:`HistoricalModel.from_arrays`
numbers a ``DayCounts`` projection's tuples in first-seen order and
sorts its rows once by (tuple, -bytes, link), so a tuple's ranking is a
slice of link and share columns (bytes over the tuple's ``math.fsum``
total) found through one tuple -> group dict.  Its ``Prediction``s are
built when it is first asked and kept in its slot: the one write a built
model sees, and idempotent, so racing readers get equal answers.  Every
model in the tree comes through this build; ``observe`` collects rows
that ``finalize`` folds onto the counts in order and builds again.  A
retrain is a new model, safe to serve from while its successor is built.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from ..pipeline.aggregation import first_seen_groups, sorted_rows
from ..pipeline.records import FlowContext
from ..store.codec import key_column_names
from .base import NO_LINKS, Prediction, TrainableModel
from .features import FeatureSet
from .training import fold_keyed

#: a model key: the projection of a flow context onto a feature set
TupleKey = Tuple[object, ...]

#: every tuple's ranked predictions
Rankings = Dict[TupleKey, Tuple[Prediction, ...]]


class HistoricalModel(TrainableModel):
    """Byte-weighted empirical link distribution per feature tuple."""

    def __init__(self, feature_set: FeatureSet, name: Optional[str] = None,
                 keep_top: Optional[int] = None):
        """
        Args:
            feature_set: which features form the flow tuple.
            name: display name; defaults to ``Hist_<features>``.
            keep_top: optionally truncate each tuple's ranking to its top
                entries (the paper keeps "only the top k links" in the
                trained model to bound size).
        """
        self.feature_set = feature_set
        self.name = name or f"Hist_{feature_set.name}"
        self.keep_top = keep_top
        # observed (key..., link) rows and bytes the table does not hold
        self._observed: List[Tuple[object, ...]] = []
        self._observed_bytes: List[float] = []
        self._build(fold_keyed((), len(feature_set.fields) + 1))

    # -- training -------------------------------------------------------------

    def observe(self, context: FlowContext, link_id: int, bytes_: float) -> None:
        self.observe_aggregate(self.feature_set.key(context), link_id, bytes_)

    def observe_aggregate(self, key: TupleKey, link_id: int,
                          bytes_: float) -> None:
        """Accumulate bytes for an already-projected tuple key.

        Trainers that pre-aggregate observations at this model's feature
        grain call this directly, skipping the per-record projection.
        """
        if bytes_ > 0.0:
            self._observed.append((*key, link_id))
            self._observed_bytes.append(bytes_)

    def finalize(self) -> None:
        """Fold rows observed since the last build onto the counts, in order."""
        if self._observed:
            width = len(self.feature_set.fields) + 1
            observed = dict(zip(key_column_names(width), np.array(
                self._observed, dtype=np.int64).reshape(-1, width).T),
                value=np.array(self._observed_bytes, dtype=np.float64))
            self._observed, self._observed_bytes = [], []
            self._build(fold_keyed((self.to_arrays(), observed), width))

    def _build(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Make ``to_arrays``-shaped distinct rows the table: one sort."""
        *fields, links = (np.asarray(arrays[column], dtype=np.int64) for column
                          in key_column_names(len(self.feature_set.fields) + 1))
        values = np.asarray(arrays["value"], dtype=np.float64)
        if any(column.shape != values.shape for column in (*fields, links)):
            raise ValueError("misaligned model columns")
        if not (np.isfinite(values) & (values > 0.0)).all():
            raise ValueError("byte counts must be finite and positive")
        rep, group = first_seen_groups(fields)
        down = np.unique(-values, return_inverse=True)[1].ravel()
        # rank order; ``_seen`` keeps each row's place in ``arrays``
        self._seen = order = sorted_rows((group, down, links))
        self._bytes, counts = values[order], np.bincount(group, minlength=len(rep))
        self._starts: List[int] = [0, *np.cumsum(counts).tolist()]
        # fsum totals: one rounded addition is the fsum of two links
        totals, starts = np.add.reduceat(self._bytes, self._starts[:-1]), self._starts
        for g in np.flatnonzero(counts > 2).tolist():
            totals[g] = math.fsum(self._bytes[starts[g]:starts[g + 1]].tolist())
        self._links: List[int] = links[order].tolist()
        self._shares: List[float] = (self._bytes / np.repeat(totals, counts)).tolist()
        self._index: Dict[TupleKey, int] = dict(zip(
            zip(*(field[rep].tolist() for field in fields)), range(len(rep))))
        self._slots: List[Optional[Tuple[Prediction, ...]]] = [None] * len(rep)

    # -- prediction -----------------------------------------------------------

    def _rank(self, group: int) -> Tuple[Prediction, ...]:
        """Fill one tuple's slot (``keep_top`` cuts after the total)."""
        start, end = self._starts[group], self._starts[group + 1]
        if self.keep_top is not None:
            end = min(end, start + self.keep_top)
        ranking = self._slots[group] = tuple(map(
            Prediction, self._links[start:end], self._shares[start:end]))
        return ranking

    def _ranking_for(self, context: FlowContext) -> Tuple[Prediction, ...]:
        if self._observed:
            self.finalize()
        group = self._index.get(self.feature_set.key(context))
        if group is None:
            return ()
        return self._slots[group] or self._rank(group)

    def predict(self, context: FlowContext, k: int,
                unavailable: FrozenSet[int] = NO_LINKS) -> List[Prediction]:
        ranking = self._ranking_for(context)
        if not unavailable:
            return list(ranking[:k])
        out: List[Prediction] = []
        for pred in ranking:
            if pred.link_id not in unavailable:
                out.append(pred)
                if len(out) == k:
                    break
        return out

    def has_prediction(self, context: FlowContext,
                       unavailable: FrozenSet[int] = NO_LINKS) -> bool:
        ranking = self._ranking_for(context)
        if not unavailable:
            return bool(ranking)
        return any(p.link_id not in unavailable for p in ranking)

    def group_key(self, context: FlowContext) -> TupleKey:
        """Predictions are constant per feature tuple (batching key)."""
        return self.feature_set.key(context)

    @property
    def key_fields(self) -> Tuple[str, ...]:
        return self.feature_set.fields

    # -- columnar persistence --------------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The trained counts as aligned columns (``repro.store``), tuples
        and each one's links in first-seen order: ``k0..k<n-1>`` the key
        fields, ``k<n>`` the link id, ``value`` the byte count."""
        self.finalize()
        group = np.repeat(np.arange(len(self._slots), dtype=np.int64),
                          np.diff(self._starts))
        rows, width = sorted_rows((group, self._seen)), len(self.feature_set.fields)
        keys = np.array(list(self._index), dtype=np.int64).reshape(-1, width)
        columns = dict(zip(key_column_names(width + 1), (
            *np.ascontiguousarray(keys[group[rows]].T, dtype=np.int64),
            np.array(self._links, dtype=np.int64)[rows])))
        columns["value"] = self._bytes[rows]
        return columns

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray],
                    feature_set: FeatureSet, name: Optional[str] = None,
                    keep_top: Optional[int] = None) -> "HistoricalModel":
        """Build a model from :meth:`to_arrays`-shaped columns.

        Rows must be distinct (tuple, link) pairs; tuples and each
        tuple's links keep their first-row order.  Raises ``KeyError`` /
        ``ValueError`` on a column set that does not match, or on a byte
        count that is not finite and positive (``observe`` drops those).
        """
        model = cls(feature_set, name=name, keep_top=keep_top)
        model._build(arrays)
        return model

    # -- introspection ----------------------------------------------------------

    def size(self) -> int:
        """Number of stored flow tuples (model size, paper Table 3)."""
        self.finalize()
        return len(self._slots)

    def tuples(self) -> Tuple[TupleKey, ...]:
        self.finalize()
        return tuple(self._index)

    def bytes_for(self, context: FlowContext) -> Dict[int, float]:
        """Raw training byte counts per link for a flow (for analysis)."""
        self.finalize()
        group = self._index.get(self.feature_set.key(context))
        if group is None:
            return {}
        start, end = self._starts[group], self._starts[group + 1]
        return dict(zip(self._links[start:end], self._bytes[start:end].tolist()))

    def rankings(self) -> Rankings:
        """Every tuple's full ranking, in first-seen order (a copy)."""
        self.finalize()
        return {key: self._slots[group] or self._rank(group)
                for key, group in self._index.items()}
