"""The row-by-row Naive Bayes the table build is tested against.

``DictNaiveBayesModel`` is ``repro.core.naive_bayes.NaiveBayesModel`` as
it was before it was built from columns: ``observe`` adds each row's
bytes onto per-link and per-(feature value, link) dicts and a running
total, and ``finalize`` turns them into the log tables.  The class body
is unchanged but for its name and the availability check it no longer
answers.  ``tests/properties/test_prop_naive_bayes.py`` compares the
table build against it to the bit, as ``tests/core/historical_oracle.py``
is for the historical model.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.base import NO_LINKS, Prediction
from repro.core.features import FeatureSet
from repro.pipeline.records import FlowContext
from tests.core.per_context import PerContextModel


class DictNaiveBayesModel(PerContextModel):
    """Byte-weighted multinomial Naive Bayes over the feature set."""

    def __init__(self, feature_set: FeatureSet, name: Optional[str] = None,
                 alpha: float = 1.0):
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        self.feature_set = feature_set
        self.name = name or f"NB_{feature_set.name}"
        self.alpha = alpha
        # training accumulators
        self._link_bytes: Dict[int, float] = {}
        self._feature_bytes: Tuple[Dict[Tuple[int, int], float], ...] = tuple(
            {} for _ in feature_set.fields)  # (value, link) -> bytes
        self._total = 0.0
        # frozen state
        self._links: Optional[Tuple[int, ...]] = None
        self._link_index: Dict[int, int] = {}
        self._log_prior: Optional[np.ndarray] = None
        self._log_cond: Tuple[Dict[int, np.ndarray], ...] = ()
        self._log_default: Tuple[np.ndarray, ...] = ()

    # -- training -------------------------------------------------------------

    def observe(self, context: FlowContext, link_id: int, bytes_: float) -> None:
        if bytes_ <= 0.0:
            return
        self._links = None
        self._link_bytes[link_id] = self._link_bytes.get(link_id, 0.0) + bytes_
        self._total += bytes_
        key = self.feature_set.key(context)
        for i, value in enumerate(key):
            table = self._feature_bytes[i]
            fk = (value, link_id)
            table[fk] = table.get(fk, 0.0) + bytes_

    def finalize(self) -> None:
        links = tuple(sorted(self._link_bytes))
        self._links = links
        self._link_index = {l: i for i, l in enumerate(links)}
        n = len(links)
        if n == 0:
            self._log_prior = np.zeros(0, dtype=np.float64)
            self._log_cond = tuple({} for _ in self.feature_set.fields)
            self._log_default = tuple(np.zeros(0, dtype=np.float64) for _ in self.feature_set.fields)
            return
        totals = np.array([self._link_bytes[l] for l in links],
                          dtype=np.float64)
        self._log_prior = np.log(totals / self._total)

        conds: List[Dict[int, np.ndarray]] = []
        defaults: List[np.ndarray] = []
        for i, field in enumerate(self.feature_set.fields):
            table = self._feature_bytes[i]
            values = sorted({v for (v, _l) in table})
            cardinality = max(len(values), 1)
            denom = totals + self.alpha * cardinality
            per_value: Dict[int, np.ndarray] = {}
            for value in values:
                numer = np.full(n, self.alpha, dtype=np.float64)
                for j, link in enumerate(links):
                    b = table.get((value, link))
                    if b:
                        numer[j] += b
                per_value[value] = np.log(numer / denom)
            conds.append(per_value)
            defaults.append(np.log(self.alpha / denom))
        self._log_cond = tuple(conds)
        self._log_default = tuple(defaults)

    # -- prediction -----------------------------------------------------------

    def _scores(self, context: FlowContext) -> Tuple[np.ndarray, bool]:
        """Per-link log scores and whether any feature value was known."""
        if self._links is None:
            self.finalize()
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

    def predict(self, context: FlowContext, k: int,
                unavailable: FrozenSet[int] = NO_LINKS) -> List[Prediction]:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        log_p, any_known = self._scores(context)
        if log_p.size == 0 or not any_known:
            return []
        if unavailable:
            mask = np.array(
                [l in unavailable for l in self._links], dtype=np.bool_)
            if mask.all():
                return []
            log_p = np.where(mask, -np.inf, log_p)
        # normalise to probabilities for interpretable scores
        finite = log_p[np.isfinite(log_p)]
        if finite.size == 0:
            return []
        shifted = np.exp(log_p - finite.max())
        shifted[~np.isfinite(log_p)] = 0.0
        total = shifted.sum()
        if total <= 0.0:
            return []
        probs = shifted / total
        k = min(k, int(np.count_nonzero(probs > 0.0)))
        if k == 0:
            return []
        top = np.argpartition(-probs, k - 1)[:k]
        top = top[np.argsort(-probs[top], kind="stable")]
        return [Prediction(self._links[i], float(probs[i])) for i in top]

    def group_key(self, context: FlowContext) -> object:
        """Scores depend only on the projected feature tuple."""
        return self.feature_set.key(context)

    @property
    def key_fields(self) -> Tuple[str, ...]:
        return self.feature_set.fields

    # -- introspection ----------------------------------------------------------

    def size(self) -> int:
        """Stored (feature value, link) entries + priors (Table 11 size)."""
        return len(self._link_bytes) + sum(
            len(t) for t in self._feature_bytes)
