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
model in the tree comes through this build, and nothing changes its
counts after it: a retrain is a new model, built from the window's
folded counts, safe to serve from while its successor is built.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..pipeline.aggregation import first_seen_groups, sorted_rows
from ..pipeline.records import FlowContext
from ..store.codec import key_column_names
from .base import NO_LINKS, Answer, IngressModel, Prediction, check_k
from .features import FeatureSet

#: a model key: the projection of a flow context onto a feature set
TupleKey = Tuple[object, ...]

#: every tuple's ranked predictions
Rankings = Dict[TupleKey, Answer]

#: a (link, share) pair's ``Prediction``, without the Python ``__new__``
_prediction = partial(tuple.__new__, Prediction)


class HistoricalModel(IngressModel):
    """Byte-weighted empirical link distribution per feature tuple."""

    #: a model is ``<name_prefix>_<features>`` unless given a name
    name_prefix = "Hist"

    def __init__(self, arrays: Mapping[str, np.ndarray],
                 feature_set: FeatureSet, name: Optional[str] = None):
        """Make ``to_arrays``-shaped distinct rows the table: one sort.

        Args:
            arrays: ``k0..k<n>`` the tuple's fields and the link id,
                ``value`` the byte count, as :meth:`to_arrays` gives.
            feature_set: which features form the flow tuple.
            name: display name; defaults to ``<name_prefix>_<features>``.
        """
        self.feature_set = feature_set
        self.name = name or f"{self.name_prefix}_{feature_set.name}"
        *fields, links = (np.asarray(arrays[column], dtype=np.int64) for column
                          in key_column_names(len(feature_set.fields) + 1))
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
        starts = self._starts
        if (int(values.max(initial=0.0)) * int(counts.max(initial=0)) < 2 ** 63
                and (self._bytes == np.floor(self._bytes)).all()):
            # integral counts whose longest tuple's total fits in int64
            # add exactly and round once, as ``math.fsum`` does
            totals = np.add.reduceat(self._bytes.astype(np.int64),
                                     starts[:-1]).astype(np.float64)
        else:
            # fsum totals: one rounded addition is the fsum of two links
            totals = np.add.reduceat(self._bytes, starts[:-1])
            for g in np.flatnonzero(counts > 2).tolist():
                totals[g] = math.fsum(self._bytes[starts[g]:starts[g + 1]].tolist())
        self._links: List[int] = links[order].tolist()
        self._shares: List[float] = (self._bytes / np.repeat(totals, counts)).tolist()
        self._index: Dict[TupleKey, int] = dict(zip(
            zip(*(field[rep].tolist() for field in fields)), range(len(rep))))
        self._slots: List[Optional[Answer]] = [None] * len(rep)
        if type(self).group_key is HistoricalModel.group_key:
            # the projection itself, no method frame; an override keeps its key
            setattr(self, "group_key", feature_set.key)

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray],
                    feature_set: FeatureSet,
                    name: Optional[str] = None) -> "HistoricalModel":
        """Build a model from :meth:`to_arrays`-shaped columns.

        Rows must be distinct (tuple, link) pairs; tuples and each
        tuple's links keep their first-row order.  Raises ``KeyError`` /
        ``ValueError`` on a column set that does not match, or on a byte
        count that is not finite and positive.
        """
        return cls(arrays, feature_set, name)

    # -- prediction -----------------------------------------------------------

    def _rank(self, group: int) -> Answer:
        """Fill one tuple's slot."""
        start, end = self._starts[group], self._starts[group + 1]
        ranking = self._slots[group] = tuple(map(_prediction, zip(
            self._links[start:end], self._shares[start:end])))
        return ranking

    def answers(self, contexts: Sequence[FlowContext], k: int,
                prior: FrozenSet[int] = NO_LINKS) -> List[Answer]:
        """Key -> group -> slot for each context; an unseen tuple is ()."""
        check_k(k)
        slots, rank = self._slots, self._rank
        rankings = [() if group is None else slots[group] or rank(group)
                    for group in map(self._index.get,
                                     map(self.feature_set.key, contexts))]
        if not prior:
            return [ranking[:k] for ranking in rankings]
        return [tuple([p for p in ranking if p.link_id not in prior][:k])
                for ranking in rankings]

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
        group = np.repeat(np.arange(len(self._slots), dtype=np.int64),
                          np.diff(self._starts))
        rows, width = sorted_rows((group, self._seen)), len(self.feature_set.fields)
        keys = np.array(list(self._index), dtype=np.int64).reshape(-1, width)
        columns = dict(zip(key_column_names(width + 1), (
            *np.ascontiguousarray(keys[group[rows]].T, dtype=np.int64),
            np.array(self._links, dtype=np.int64)[rows])))
        columns["value"] = self._bytes[rows]
        return columns

    # -- introspection ----------------------------------------------------------

    def size(self) -> int:
        """Number of stored flow tuples (model size, paper Table 3)."""
        return len(self._slots)

    def tuples(self) -> Tuple[TupleKey, ...]:
        return tuple(self._index)

    def bytes_for(self, context: FlowContext) -> Dict[int, float]:
        """Raw training byte counts per link for a flow (for analysis)."""
        group = self._index.get(self.feature_set.key(context))
        if group is None:
            return {}
        start, end = self._starts[group], self._starts[group + 1]
        return dict(zip(self._links[start:end], self._bytes[start:end].tolist()))

    def rankings(self) -> Rankings:
        """Every tuple's full ranking, in first-seen order (a copy)."""
        return {key: self._slots[group] or self._rank(group)
                for key, group in self._index.items()}
