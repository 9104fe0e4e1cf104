"""Model protocol and prediction types.

All TIPSY models share one interface, :meth:`IngressModel.answers`:
given flow contexts, a budget of ``k`` links, and a prior of
currently-unavailable links (the withdrawal / outage being evaluated,
paper §5.3.1), answer each with up to ``k`` ranked links and the
predicted fraction of the flow's bytes on each.  ``predict`` (one
context) and ``what_if`` are views over it.

Every model also answers the CMS's safety question (paper §4.4),
``what_if(flows, withdrawn, k)``, through the package's one spill sum,
:func:`spill_from_groups`, which the service and the daemon share: one
``dict`` pass over the few hundred weights a call carries, no numpy.
A ``k`` below 1 is a ``ValueError``, never an empty or clipped answer.
"""

from __future__ import annotations

import abc
from typing import (AbstractSet, Callable, Dict, FrozenSet, Iterable, List,
                    NamedTuple, Optional, Protocol, Sequence, Tuple)

from ..pipeline.records import FlowContext

NO_LINKS: FrozenSet[int] = frozenset()


class Prediction(NamedTuple):
    """One predicted ingress link with its byte-fraction score."""

    link_id: int
    score: float


#: one context's answer: up to ``k`` predictions, best first
Answer = Tuple[Prediction, ...]


def check_k(k: int) -> None:
    """A ``k`` below 1 is a caller's error, never an empty answer."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def group_flows(
    group_key: Callable[[FlowContext], object],
    flows: Sequence[Tuple[FlowContext, float]],
) -> Tuple[List[FlowContext], List[float]]:
    """Group byte-weighted flows by a model's feature key.

    Returns aligned (representative contexts, summed bytes) in
    first-occurrence order.  Every ``what_if`` — a model's, the
    service's and the sharded daemon's (:mod:`repro.serve`) — groups
    through this one function, so their byte accumulation order, and
    therefore their float sums, are identical by construction.
    """
    group_index: Dict[object, int] = {}
    group_contexts: List[FlowContext] = []
    group_bytes: List[float] = []
    for context, bytes_ in flows:
        key = group_key(context)
        index = group_index.get(key)
        if index is None:
            group_index[key] = len(group_contexts)
            group_contexts.append(context)
            group_bytes.append(bytes_)
        else:
            group_bytes[index] += bytes_
    return group_contexts, group_bytes


def spill_from_groups(
    groups: Iterable[Tuple[Sequence[Prediction], float]],
) -> Dict[int, float]:
    """Per-link byte spill from grouped predictions.

    The accumulation half of ``what_if``: byte-weight each group's
    predictions by score and add them onto a per-link total from 0.0 in
    input order; links come out ascending, and bytes with no prediction
    last, under link id ``-1``.
    The one spill sum of the package: every ``what_if`` ends here, so
    all of them produce bit-identical spill for the same groups in the
    same order.
    """
    sums: Dict[int, float] = {}
    unplaceable = 0.0
    for predictions, bytes_ in groups:
        # left to right, as 3.9-3.11's ``sum`` adds (3.12's compensates)
        total = 0.0
        for _, score in predictions:
            total += score
        if total <= 0.0:
            unplaceable += bytes_
            continue
        for link, score in predictions:
            sums[link] = sums.get(link, 0.0) + bytes_ * score / total
    spill = {link: sums[link] for link in sorted(sums)}
    if unplaceable > 0.0:
        spill[-1] = spill.get(-1, 0.0) + unplaceable
    return spill


class SpillPredictor(Protocol):
    """Whatever answers the CMS's safety question: every
    :class:`IngressModel`, :class:`~repro.core.service.TipsyService` and
    :class:`~repro.serve.daemon.ServeDaemon`."""

    def what_if(self, flows: Sequence[Tuple[FlowContext, float]],
                withdrawn: AbstractSet[int], k: int) -> Dict[int, float]:
        """Predicted per-link byte spill if ``withdrawn`` links go away;
        bytes with no prediction under link id ``-1``."""
        ...


class IngressModel(abc.ABC):
    """Interface of every ingress prediction model."""

    name: str = "model"

    @abc.abstractmethod
    def answers(self, contexts: Sequence[FlowContext], k: int,
                prior: FrozenSet[int] = NO_LINKS) -> List[Answer]:
        """Each context's top-``k`` predicted ingress links.

        Args:
            contexts: the flows' full feature tuples.
            k: maximum number of links an answer holds, at least 1.
            prior: links known to be out of service (withdrawn or in
                outage); never returned.

        Returns:
            One answer per context, in order: up to ``k`` predictions
            sorted by descending score; empty if the model has nothing
            to say for that flow.
        """

    def predict(self, context: FlowContext, k: int,
                unavailable: FrozenSet[int] = NO_LINKS) -> List[Prediction]:
        """Top-``k`` predicted ingress links for one flow: its
        :meth:`answers` row."""
        return list(self.answers((context,), k, unavailable)[0])

    def what_if(self, flows: Sequence[Tuple[FlowContext, float]],
                withdrawn: AbstractSet[int], k: int) -> Dict[int, float]:
        """Predicted per-link byte spill of ``flows`` if ``withdrawn``
        links go away (paper §4.4), byte-weighted by prediction scores;
        bytes with no prediction are returned under link id ``-1``.

        Each distinct :meth:`group_key` among the flows is answered
        once, in one :meth:`answers` call with ``withdrawn`` as the
        availability prior.
        """
        group_contexts, group_bytes = group_flows(self.group_key, flows)
        return spill_from_groups(zip(
            self.answers(group_contexts, k, frozenset(withdrawn)),
            group_bytes))

    def group_key(self, context: FlowContext) -> object:
        """A hashable key under which this model's predictions are constant.

        Two contexts with the same group key (and the same ``k`` and
        availability prior) are guaranteed the same prediction, so batch
        callers answer each distinct key once and fan the result out.
        Models that project contexts onto a feature tuple return that
        tuple — far fewer distinct keys than flows (paper §3.2: the
        tuple space is much smaller than the flow space).  The safe
        default is the full context.
        """
        return context

    @property
    def key_fields(self) -> Optional[Tuple[str, ...]]:
        """The ``FlowContext`` fields :meth:`group_key` projects onto, if
        the key is exactly that projection and :meth:`answers` reads
        nothing else of the context (an ensemble keys such components
        jointly by the union of their fields); ``None``, the default,
        promises nothing.  Whoever overrides ``group_key`` or ``answers``
        restates this."""
        return None

    def size(self) -> int:
        """Number of stored entries (Table 3 / Table 11 model size)."""
        return 0
