"""Byte-weighted top-k prediction accuracy (paper §5.1.2).

Accuracy is *the sum of all bytes a model correctly matched to the actual
links that received the traffic, divided by the sum of all bytes for all
flows*.  Predicting three links is not "three guesses, one must hit": a
model only earns the bytes that genuinely arrived on links it named.

Two variants:

* ``link_matched`` (default, used for all tables): bytes arriving on any
  of the model's top-k links count as matched.  The unrestricted oracle
  scores exactly 100% under it.
* ``volume_matched`` (stricter): each predicted link only earns
  ``min(predicted fraction x flow bytes, actual bytes)``, penalising
  mis-apportioned volumes even when the link set is right.

Actual test traffic is a keyed table as ``DayCounts`` lays one out —
``k0..k4`` the flow context, ``k5`` the link, ``value`` the bytes, one
row per distinct (context, link): the table the feed's hours fold into.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..pipeline.aggregation import first_seen_groups
from ..pipeline.records import FlowContext
from .base import NO_LINKS, IngressModel
from .training import KEY_NAMES, fold_keyed

#: one slice of test traffic: a keyed table and its availability prior
Slice = Tuple[Mapping[str, np.ndarray], FrozenSet[int]]


class ActualsTable:
    """Slices of test traffic, each scored under its own availability
    prior, their rows stacked in order.

    A *question* is a (slice, flow context); rows are numbered by
    question in first-seen order.  Questions that agree on the slice and
    on a model's ``key_fields`` (every field when it states none) share
    one answer, so each distinct one is put to ``predict`` once per
    ``k``.  The answers become a link table padded with -1, and a row is
    matched when its link is in its question's answer: one gather.
    Arrays handed in are only read.
    """

    def __init__(self, slices: Sequence[Slice]) -> None:
        self.priors: List[FrozenSet[int]] = [prior for _, prior in slices]
        tables = [fold_keyed((), len(KEY_NAMES)), *(t for t, _ in slices)]
        #: the stacked rows: ``k0..k5`` and ``value``
        self.columns: Dict[str, np.ndarray] = {
            name: np.concatenate([table[name] for table in tables])
            for name in tables[0]}
        self._slice = np.repeat(np.arange(len(slices), dtype=np.int64),
                                [len(table["value"]) for table in tables[1:]])
        contexts = [self.columns[name] for name in KEY_NAMES[:-1]]
        self._rep, self._question = first_seen_groups([self._slice,
                                                       *contexts])
        self._contexts = list(map(FlowContext._make, zip(
            *(column[self._rep].tolist() for column in contexts))))
        self._slice_of: List[int] = self._slice[self._rep].tolist()

    def predictions(self, model: IngressModel, k: int,
                    rows: Optional[np.ndarray] = None,
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(links, shares)``, each ``(questions, width)``: the answers
        padded with ``-1`` and ``0.0``.  Only the questions of ``rows`` (a
        row mask; every row if None) are asked; the rest read as none."""
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        asked = (np.arange(len(self._contexts)) if rows is None else
                 np.unique(self._question[rows]))
        fields = model.key_fields or FlowContext._fields
        firsts, answer_of = first_seen_groups([
            column[self._rep[asked]] for column in (self._slice, *(
                self.columns[KEY_NAMES[FlowContext._fields.index(name)]]
                for name in fields))])
        answers = [model.predict(self._contexts[question], k,
                                 self.priors[self._slice_of[question]])
                   for question in asked[firsts].tolist()]
        lengths = np.array([len(answer) for answer in answers],
                           dtype=np.int64)
        # (link, share) cells; one row more, all padding, for the unasked
        cells = np.zeros((len(answers) + 1, int(lengths.max(initial=1)), 2))
        cells[..., 0] = -1.0
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(answers)),
                           dtype=np.float64).reshape(-1, 2)
        cells[np.repeat(np.arange(len(answers)), lengths),
              np.arange(len(flat)) - np.repeat(np.cumsum(lengths) - lengths,
                                               lengths)] = flat
        which = np.full(len(self._contexts), len(answers), dtype=np.int64)
        which[asked] = answer_of
        return cells[which, :, 0].astype(np.int64), cells[which, :, 1]

    def hits(self, model: IngressModel, k: int,
             rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Per row: its bytes arrived on a link ``model`` names for its
        question (rows outside ``rows``, when given, are never hits)."""
        links, _shares = self.predictions(model, k, rows)
        hit = (links[self._question]
               == self.columns[KEY_NAMES[-1]][:, None]).any(axis=1)
        return hit if rows is None else hit & rows

    def score(self, model: IngressModel, k: int,
              strict_volumes: bool = False) -> Tuple[float, float]:
        """``(matched bytes, total bytes)`` over every slice.

        Link-matched bytes are summed pairwise, which is exact for the
        feed's byte counts (multiples of 2**15).  Volume-matched terms
        are not, so they are added as a walk adds them: each question's
        in rank order onto one running sum, questions in order.
        """
        values = self.columns["value"]
        if not strict_volumes:
            return (float(values[self.hits(model, k)].sum()),
                    float(values.sum()))
        links, shares = self.predictions(model, k)
        row, rank = np.nonzero(
            links[self._question] == self.columns[KEY_NAMES[-1]][:, None])
        actual = np.zeros(links.shape)
        actual[self._question[row], rank] = values[row]
        flow_bytes = np.bincount(self._question, weights=values,
                                 minlength=len(self._contexts))
        earned = np.minimum(shares * flow_bytes[:, None], actual)
        # rank by rank onto each question's sum, then questions in order
        walk = np.add.accumulate(earned, axis=1)[:, -1].cumsum()
        return (float(walk[-1]) if len(walk) else 0.0), float(values.sum())


def evaluate_accuracy(
    actuals: Mapping[str, np.ndarray],
    model: IngressModel,
    k: int,
    unavailable: FrozenSet[int] = NO_LINKS,
    strict_volumes: bool = False,
) -> float:
    """Top-k byte-weighted accuracy of a model over evaluation actuals.

    Args:
        actuals: the actual bytes, a keyed table (``k0..k4`` the flow
            context, ``k5`` the ingress link, ``value`` the bytes).
        model: the model under evaluation.
        k: prediction budget, at least 1.
        unavailable: the availability prior handed to the model (links in
            outage / withdrawn during this evaluation slice).
        strict_volumes: use the volume-matched variant.

    Returns:
        Matched bytes / total bytes, in [0, 1].  0.0 if there are no bytes.
    """
    matched, total = ActualsTable([(actuals, unavailable)]).score(
        model, k, strict_volumes)
    if total <= 0.0:
        return 0.0
    return matched / total
