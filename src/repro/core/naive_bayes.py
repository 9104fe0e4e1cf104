"""Naive Bayes ingress models (paper Appendix A).

``p(l | f) ∝ p(l) · Π p(f_i | l)`` with byte-weighted counts and Laplace
smoothing.  Unlike the historical model, Naive Bayes transfers across
tuples: it can score a tuple never seen in training from the per-feature
conditionals of similar flows — at the cost of an O(l · |features|)
prediction (paper Table 11) and generally lower accuracy (Tables 9, 10).

The implementation vectorises the per-link log-likelihoods with numpy so
that a prediction is a handful of array adds plus a top-k selection.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..pipeline.records import FlowContext
from ..store.codec import key_column_names
from .base import NO_LINKS, Answer, IngressModel, Prediction, check_k
from .features import FeatureSet

#: Laplace smoothing: every (feature value, link) count starts at one byte
ALPHA = 1.0

#: the columns of a finest-grain table: the 5 FlowContext fields + link id
_KEY_NAMES = key_column_names(len(FlowContext._fields) + 1)


class NaiveBayesModel(IngressModel):
    """Byte-weighted multinomial Naive Bayes over the feature set."""

    def __init__(self, arrays: Mapping[str, np.ndarray],
                 feature_set: FeatureSet, name: Optional[str] = None):
        """Build the log tables from a ``DayCounts.to_arrays`` table.

        Bytes are summed per link and per (feature value, link) in row
        order (``np.bincount``) and the total is a running sum over the
        rows: the sums a walk of the table row by row takes.

        Args:
            arrays: ``k0..k4`` the flow context, ``k5`` the link id and
                ``value`` the bytes, positive, one row per distinct key.
            feature_set: which features the conditionals are over.
            name: display name; defaults to ``NB_<features>``.
        """
        self.feature_set = feature_set
        self.name = name or f"NB_{feature_set.name}"
        *fields, link_ids = (np.asarray(arrays[column], dtype=np.int64)
                             for column in _KEY_NAMES)
        values = np.asarray(arrays["value"], dtype=np.float64)
        if any(column.shape != values.shape for column in (*fields, link_ids)):
            raise ValueError("misaligned model columns")
        if not (np.isfinite(values) & (values > 0.0)).all():
            raise ValueError("byte counts must be finite and positive")
        links, link_of = np.unique(link_ids, return_inverse=True)
        n = len(links)
        self._links: Tuple[int, ...] = tuple(links.tolist())
        self._size = n
        totals = np.bincount(link_of, weights=values, minlength=n)
        # over the running total (``np.sum`` is pairwise); none if no rows
        self._log_prior = np.log(totals / np.cumsum(values)[-1:])
        conds: List[Dict[int, np.ndarray]] = []
        defaults: List[np.ndarray] = []
        for field in feature_set.fields:
            seen, value_of = np.unique(
                fields[FlowContext._fields.index(field)], return_inverse=True)
            cells = np.bincount(value_of * n + link_of, weights=values,
                                minlength=len(seen) * n)
            self._size += int(np.count_nonzero(cells))
            denom = totals + ALPHA * len(seen)
            conds.append(dict(zip(seen.tolist(), map(
                np.log, (ALPHA + cells).reshape(len(seen), n) / denom))))
            defaults.append(np.log(ALPHA / denom))
        self._log_cond: Tuple[Dict[int, np.ndarray], ...] = tuple(conds)
        self._log_default: Tuple[np.ndarray, ...] = tuple(defaults)

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray],
                    feature_set: FeatureSet,
                    name: Optional[str] = None) -> "NaiveBayesModel":
        """Build a model from a finest-grain ``DayCounts.to_arrays``
        table; no rows is a model that predicts nothing.  Raises
        ``KeyError`` / ``ValueError`` on a column set that does not
        match, or on a byte count that is not finite and positive."""
        return cls(arrays, feature_set, name)

    # -- prediction -----------------------------------------------------------

    def _scores(self, context: FlowContext) -> Tuple[np.ndarray, bool]:
        """Per-link log scores and whether any feature value was known."""
        if not self._links:
            return np.zeros(0, dtype=np.float64), False
        log_p = self._log_prior.copy()
        key = self.feature_set.key(context)
        any_known = False
        for i, value in enumerate(key):
            vec = self._log_cond[i].get(value)
            if vec is None:
                log_p += self._log_default[i]
            else:
                any_known = True
                log_p += vec
        return log_p, any_known

    def answers(self, contexts: Sequence[FlowContext], k: int,
                prior: FrozenSet[int] = NO_LINKS) -> List[Answer]:
        check_k(k)
        withdrawn = (np.array([l in prior for l in self._links], dtype=np.bool_)
                     if prior else None)
        return [self._answer(context, k, withdrawn) for context in contexts]

    def _answer(self, context: FlowContext, k: int,
                withdrawn: Optional[np.ndarray]) -> Answer:
        log_p, any_known = self._scores(context)
        if log_p.size == 0 or not any_known:
            return ()
        if withdrawn is not None:
            if withdrawn.all():
                return ()
            log_p = np.where(withdrawn, -np.inf, log_p)
        # normalise to probabilities for interpretable scores
        finite = log_p[np.isfinite(log_p)]
        if finite.size == 0:
            return ()
        shifted = np.exp(log_p - finite.max())
        shifted[~np.isfinite(log_p)] = 0.0
        total = shifted.sum()
        if total <= 0.0:
            return ()
        probs = shifted / total
        k = min(k, int(np.count_nonzero(probs > 0.0)))
        if k == 0:
            return ()
        top = np.argpartition(-probs, k - 1)[:k]
        top = top[np.argsort(-probs[top], kind="stable")]
        return tuple(Prediction(self._links[i], float(probs[i])) for i in top)

    def group_key(self, context: FlowContext) -> object:
        """Scores depend only on the projected feature tuple."""
        return self.feature_set.key(context)

    @property
    def key_fields(self) -> Tuple[str, ...]:
        return self.feature_set.fields

    # -- introspection ----------------------------------------------------------

    def size(self) -> int:
        """Stored (feature value, link) entries + priors (Table 11 size)."""
        return self._size
