"""Historical models (paper §3.3.1).

``p(l | f) = B(f, l) / B(f)`` — the byte-weighted empirical distribution
of ingress links per flow tuple.  Training is a single counting pass;
prediction is a lookup, exactly the O(n)/O(1) costs of paper Table 3.

The defining limitation (and strength) is the absence of transfer
learning: a link never observed for a tuple can never be predicted for
it, and a tuple never observed yields no prediction at all — which is why
the ensembles of :mod:`repro.core.ensemble` exist.

Two training disciplines share this class:

* the default batch mode: ``observe`` everything, ``finalize`` once —
  plain float accumulation, the fastest path for one-shot evaluation;
* *exact* mode (``exact=True``): per-(tuple, link) sums are kept as
  exact Shewchuk partials (:mod:`repro.util.exactsum`), which makes
  :meth:`unobserve`/:meth:`unobserve_aggregate` perfectly invert earlier
  observations.  A rolling-window service can then subtract the day that
  left the window and add the day that entered, and end up with counts —
  and therefore rankings — bit-identical to a from-scratch rebuild.

Rankings are maintained lazily: observing a tuple only invalidates that
tuple's ranking, so an incremental update never forces a full
re-finalize of the whole model.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple, cast

import numpy as np

from ..pipeline.records import FlowContext
from ..store.codec import (decode_ragged, encode_keyed_table, encode_ragged,
                           key_column_names)
from ..util.exactsum import exact_add, exact_sub, exact_value
from .base import NO_LINKS, Prediction, TrainableModel
from .features import FeatureSet

#: a model key: the projection of a flow context onto a feature set
TupleKey = Tuple[object, ...]


class HistoricalModel(TrainableModel):
    """Byte-weighted empirical link distribution per feature tuple."""

    def __init__(self, feature_set: FeatureSet, name: Optional[str] = None,
                 keep_top: Optional[int] = None, exact: bool = False):
        """
        Args:
            feature_set: which features form the flow tuple.
            name: display name; defaults to ``Hist_<features>``.
            keep_top: optionally truncate each tuple's ranking to its top
                entries at finalize time (the paper keeps "only the top k
                links" in the trained model to bound size).
            exact: keep per-(tuple, link) sums exactly (order-free,
                correctly rounded), enabling :meth:`unobserve`.  Slightly
                slower to train; required for incremental rolling-window
                maintenance.
        """
        self.feature_set = feature_set
        self.name = name or f"Hist_{feature_set.name}"
        self.keep_top = keep_top
        self.exact = exact
        self._counts: Dict[TupleKey, Dict[int, float]] = {}
        # exact mode: parallel structure of Shewchuk partials
        self._partials: Optional[Dict[TupleKey, Dict[int, List[float]]]] = (
            {} if exact else None)
        self._ranked: Optional[Dict[TupleKey, Tuple[Prediction, ...]]] = None
        # tuples whose ranking is stale relative to _ranked
        self._dirty: Set[TupleKey] = set()

    # -- training -------------------------------------------------------------

    def observe(self, context: FlowContext, link_id: int, bytes_: float) -> None:
        if bytes_ <= 0.0:
            return
        self.observe_aggregate(self.feature_set.key(context), link_id, bytes_)

    def observe_aggregate(self, key: TupleKey, link_id: int,
                          bytes_: float) -> None:
        """Accumulate bytes for an already-projected tuple key.

        Columnar/windowed trainers that pre-aggregate observations at
        this model's feature grain call this directly, skipping the
        per-record projection.
        """
        if bytes_ <= 0.0:
            return
        links = self._counts.get(key)
        if links is None:
            links = {}
            self._counts[key] = links
        if self._partials is None:
            links[link_id] = links.get(link_id, 0.0) + bytes_
        else:
            plinks = self._partials.get(key)
            if plinks is None:
                plinks = {}
                self._partials[key] = plinks
            partials = plinks.get(link_id)
            if partials is None:
                partials = plinks[link_id] = []
            exact_add(partials, bytes_)
            links[link_id] = exact_value(partials)
        if self._ranked is not None:
            self._dirty.add(key)

    def unobserve(self, context: FlowContext, link_id: int,
                  bytes_: float) -> None:
        """Exactly remove a previously-observed contribution.

        Requires ``exact=True``.  Once every byte observed for a
        (tuple, link) pair has been unobserved, the pair vanishes from
        the model — it can no longer be predicted, just as if it had
        never been seen.
        """
        if bytes_ <= 0.0:
            return
        self.unobserve_aggregate(self.feature_set.key(context), link_id,
                                 bytes_)

    def unobserve_aggregate(self, key: TupleKey, link_id: int,
                            bytes_: float) -> None:
        """Exactly remove bytes for an already-projected tuple key."""
        if bytes_ <= 0.0:
            return
        if self._partials is None:
            raise RuntimeError(
                f"{self.name}: unobserve requires a model built with "
                "exact=True")
        plinks = self._partials[key]
        partials = plinks[link_id]
        exact_sub(partials, bytes_)
        value = exact_value(partials)
        links = self._counts[key]
        if value == 0.0:
            del plinks[link_id]
            del links[link_id]
            if not links:
                del self._counts[key]
                del self._partials[key]
        else:
            links[link_id] = value
        if self._ranked is not None:
            self._dirty.add(key)

    def _rank_one(self, key: TupleKey
                  ) -> Optional[Tuple[Prediction, ...]]:
        links = self._counts.get(key)
        if not links:
            return None
        # fsum: the per-tuple total must not depend on link insertion
        # order, or incremental and batch training would disagree
        total = math.fsum(links.values())
        if total <= 0.0:
            return None
        ordered = sorted(links.items(), key=lambda kv: (-kv[1], kv[0]))
        if self.keep_top is not None:
            ordered = ordered[: self.keep_top]
        return tuple(Prediction(link, b / total) for link, b in ordered)

    def finalize(self) -> None:
        """Bring every ranking up to date with the observed counts.

        After a full build, later observations only mark their own tuple
        stale, and ``finalize`` (or the first prediction for that tuple)
        re-ranks just the stale entries — a batch of incremental updates
        never pays for re-ranking the whole model.
        """
        ranked = self._ranked
        if ranked is None:
            ranked = {}
            for key in self._counts:
                ranking = self._rank_one(key)
                if ranking is not None:
                    ranked[key] = ranking
            self._ranked = ranked
        else:
            for key in self._dirty:
                ranking = self._rank_one(key)
                if ranking is None:
                    ranked.pop(key, None)
                else:
                    ranked[key] = ranking
        self._dirty.clear()

    def fork(self) -> "HistoricalModel":
        """A private copy to train while the original keeps serving.

        Counts, partials and rankings are copied in their insertion
        order, so the same updates applied to the fork and in place end
        in equal :meth:`to_arrays` columns; nothing done to the fork
        reaches the original.
        """
        twin = HistoricalModel(self.feature_set, self.name, self.keep_top,
                               self.exact)
        twin._counts = {key: dict(links)
                        for key, links in self._counts.items()}
        if self._partials is not None:
            twin._partials = {
                key: {link_id: list(partials)
                      for link_id, partials in plinks.items()}
                for key, plinks in self._partials.items()}
        if self._ranked is not None:
            twin._ranked = dict(self._ranked)
        twin._dirty = set(self._dirty)
        return twin

    # -- prediction -----------------------------------------------------------

    def _ranking_for(self, context: FlowContext) -> Tuple[Prediction, ...]:
        key = self.feature_set.key(context)
        ranked = self._ranked
        if ranked is None:
            self.finalize()
            ranked = self._ranked
            assert ranked is not None
        elif self._dirty and key in self._dirty:
            ranking = self._rank_one(key)
            if ranking is None:
                ranked.pop(key, None)
            else:
                ranked[key] = ranking
            self._dirty.discard(key)
        return ranked.get(key, ())

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

    # -- columnar persistence --------------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The trained counts as aligned columns (``repro.store``).

        One row per (tuple, link) pair in training order: ``k0..k<n-1>``
        are the feature-key fields, ``k<n>`` the link id, ``value`` the
        byte count.  In exact mode the Shewchuk partials behind each sum
        ride along as a ragged column (``partial_values`` +
        ``partial_offsets``), so a restored model can keep
        :meth:`unobserve`-ing — the rolling window resumes exactly where
        it left off, not merely with the same rounded counts.
        """
        width = len(self.feature_set.fields)
        flat: Dict[Tuple[int, ...], float] = {}
        partial_rows: List[List[float]] = []
        for key, links in self._counts.items():
            plinks = (self._partials.get(key)
                      if self._partials is not None else None)
            for link_id, bytes_ in links.items():
                flat[cast("Tuple[int, ...]", (*key, link_id))] = bytes_
                if plinks is not None:
                    partial_rows.append(plinks[link_id])
        arrays = encode_keyed_table(flat, width + 1)
        if self._partials is not None:
            values, offsets = encode_ragged(partial_rows)
            arrays["partial_values"] = values
            arrays["partial_offsets"] = offsets
        return arrays

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray],
                    feature_set: FeatureSet, name: Optional[str] = None,
                    keep_top: Optional[int] = None,
                    exact: bool = False) -> "HistoricalModel":
        """Rebuild a model from :meth:`to_arrays` output, rankings ready.

        ``exact=True`` requires the partials columns (written by an
        exact-mode model).  Raises ``KeyError``/``ValueError`` on a
        column set that does not match — snapshot readers treat that as
        corruption and degrade to a rebuild.
        """
        model = cls(feature_set, name=name, keep_top=keep_top, exact=exact)
        width = len(feature_set.fields)
        names = key_column_names(width + 1)
        fields = [arrays[column].tolist() for column in names]
        values = arrays["value"].tolist()
        if any(len(column) != len(values) for column in fields):
            raise ValueError("misaligned model columns")
        partial_rows: Optional[List[List[float]]] = None
        if exact:
            partial_rows = decode_ragged(arrays["partial_values"],
                                         arrays["partial_offsets"])
            if len(partial_rows) != len(values):
                raise ValueError("partials misaligned with counts")
        counts = model._counts
        partials = model._partials
        for row, packed in enumerate(zip(*fields, values)):
            key = cast(TupleKey, tuple(packed[:width]))
            link_id = packed[width]
            links = counts.get(key)
            if links is None:
                links = counts[key] = {}
            links[link_id] = packed[-1]
            if partial_rows is not None:
                assert partials is not None
                plinks = partials.get(key)
                if plinks is None:
                    plinks = partials[key] = {}
                plinks[link_id] = partial_rows[row]
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

    def rankings(self) -> Dict[TupleKey, Tuple[Prediction, ...]]:
        """Every tuple's full ranking, re-ranked if stale (a copy)."""
        self.finalize()
        assert self._ranked is not None
        return dict(self._ranked)
