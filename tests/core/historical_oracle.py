"""The dict-built historical model the sorted table is tested against.

``DictHistoricalModel`` is ``repro.core.historical.HistoricalModel`` as
it was before it became a columnar ranked table: ``from_arrays`` fills a
``Dict[tuple, Dict[link, float]]`` row by row, and ``_rank_all`` ranks
every tuple at once — a ``math.fsum`` total, a ``(-bytes, link)`` sort
and one ``Prediction`` per link.  The class body is unchanged but for
its name, the ranking cut it no longer takes and the availability
check it no longer answers; its ``observe`` is the row-by-row trainer
``CountsAccumulator.fit`` and the window-equivalence suite train it by.
``tests/properties/test_prop_historical.py`` compares the table against
it to the bit, as ``tests/core/counts_oracle.py`` is for ``DayCounts``.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple, cast

import numpy as np

from repro.core.base import NO_LINKS, Prediction
from repro.core.features import FeatureSet
from repro.pipeline.records import FlowContext
from repro.store.codec import encode_keyed_table, key_column_names
from tests.core.per_context import PerContextModel

#: a model key: the projection of a flow context onto a feature set
TupleKey = Tuple[object, ...]

#: every tuple's ranked predictions
Rankings = Dict[TupleKey, Tuple[Prediction, ...]]


class DictHistoricalModel(PerContextModel):
    """Byte-weighted empirical link distribution per feature tuple."""

    def __init__(self, feature_set: FeatureSet, name: Optional[str] = None):
        """
        Args:
            feature_set: which features form the flow tuple.
            name: display name; defaults to ``Hist_<features>``.
        """
        self.feature_set = feature_set
        self.name = name or f"Hist_{feature_set.name}"
        self._counts: Dict[TupleKey, Dict[int, float]] = {}
        # None until ranked; any later observation drops it again
        self._ranked: Optional[Rankings] = None

    # -- training -------------------------------------------------------------

    def observe(self, context: FlowContext, link_id: int, bytes_: float) -> None:
        if bytes_ <= 0.0:
            return
        self.observe_aggregate(self.feature_set.key(context), link_id, bytes_)

    def observe_aggregate(self, key: TupleKey, link_id: int,
                          bytes_: float) -> None:
        """Accumulate bytes for an already-projected tuple key.

        Trainers that pre-aggregate observations at this model's feature
        grain call this directly, skipping the per-record projection.
        """
        if bytes_ <= 0.0:
            return
        links = self._counts.get(key)
        if links is None:
            links = {}
            self._counts[key] = links
        links[link_id] = links.get(link_id, 0.0) + bytes_
        self._ranked = None

    def _rank_all(self) -> Rankings:
        ranked: Rankings = {}
        for key, links in self._counts.items():
            # fsum: the per-tuple total must not depend on link insertion
            # order, or two trainers of the same counts would disagree
            total = math.fsum(links.values())
            if total <= 0.0:
                continue
            ordered = sorted(links.items(), key=lambda kv: (-kv[1], kv[0]))
            ranked[key] = tuple(
                Prediction(link, b / total) for link, b in ordered)
        self._ranked = ranked
        return ranked

    def finalize(self) -> None:
        """Rank every tuple by the observed counts (no-op if current)."""
        if self._ranked is None:
            self._rank_all()

    # -- prediction -----------------------------------------------------------

    def _ranking_for(self, context: FlowContext) -> Tuple[Prediction, ...]:
        ranked = self._ranked
        if ranked is None:
            ranked = self._rank_all()
        return ranked.get(self.feature_set.key(context), ())

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

    def group_key(self, context: FlowContext) -> TupleKey:
        """Predictions are constant per feature tuple (batching key)."""
        return self.feature_set.key(context)

    @property
    def key_fields(self) -> Tuple[str, ...]:
        return self.feature_set.fields

    # -- columnar persistence --------------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The trained counts as aligned columns (``repro.store``).

        One row per (tuple, link) pair in training order: ``k0..k<n-1>``
        are the feature-key fields, ``k<n>`` the link id, ``value`` the
        byte count.
        """
        flat: Dict[Tuple[int, ...], float] = {}
        for key, links in self._counts.items():
            for link_id, bytes_ in links.items():
                flat[cast("Tuple[int, ...]", (*key, link_id))] = bytes_
        return encode_keyed_table(flat, len(self.feature_set.fields) + 1)

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray],
                    feature_set: FeatureSet,
                    name: Optional[str] = None) -> "DictHistoricalModel":
        """Build a model from :meth:`to_arrays`-shaped columns, ranked.

        Rows must be distinct (tuple, link) pairs; tuples and each
        tuple's links keep their first-row order.  Raises
        ``KeyError``/``ValueError`` on a column set that does not match.
        """
        model = cls(feature_set, name=name)
        *fields, link_ids = (
            arrays[column].tolist()
            for column in key_column_names(len(feature_set.fields) + 1))
        values = arrays["value"].tolist()
        if any(len(column) != len(values) for column in (*fields, link_ids)):
            raise ValueError("misaligned model columns")
        counts = model._counts
        for key, link_id, bytes_ in zip(zip(*fields), link_ids, values):
            links = counts.get(key)
            if links is None:
                links = counts[key] = {}
            links[link_id] = bytes_
        model.finalize()
        return model

    # -- introspection ----------------------------------------------------------

    def size(self) -> int:
        """Number of stored flow tuples (model size, paper Table 3)."""
        return len(self._counts)

    def tuples(self) -> Tuple[TupleKey, ...]:
        return tuple(self._counts)

    def bytes_for(self, context: FlowContext) -> Dict[int, float]:
        """Raw training byte counts per link for a flow (for analysis)."""
        return dict(self._counts.get(self.feature_set.key(context), {}))

    def rankings(self) -> Rankings:
        """Every tuple's full ranking, ranked first if stale (a copy)."""
        ranked = self._ranked
        return dict(ranked if ranked is not None else self._rank_all())
