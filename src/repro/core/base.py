"""Model protocol and prediction types.

All TIPSY models share one interface: given a flow context, a budget of
``k`` links, and a prior of currently-unavailable links (the withdrawal /
outage being evaluated, paper §5.3.1), return up to ``k`` ranked links
with the predicted fraction of the flow's bytes on each.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, List, NamedTuple, Optional, Tuple

from ..pipeline.records import FlowContext

NO_LINKS: FrozenSet[int] = frozenset()


class Prediction(NamedTuple):
    """One predicted ingress link with its byte-fraction score."""

    link_id: int
    score: float


class IngressModel(abc.ABC):
    """Interface of every ingress prediction model."""

    name: str = "model"

    @abc.abstractmethod
    def predict(self, context: FlowContext, k: int,
                unavailable: FrozenSet[int] = NO_LINKS) -> List[Prediction]:
        """Top-``k`` predicted ingress links for a flow.

        Args:
            context: the flow's full feature tuple.
            k: maximum number of links to return.
            unavailable: links known to be out of service (withdrawn or in
                outage); never returned.

        Returns:
            Up to ``k`` predictions sorted by descending score; empty if
            the model has nothing to say for this flow.
        """

    def has_prediction(self, context: FlowContext,
                       unavailable: FrozenSet[int] = NO_LINKS) -> bool:
        """Whether :meth:`predict` would return at least one link."""
        return bool(self.predict(context, 1, unavailable))

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
        the key is exactly that projection and :meth:`predict` reads
        nothing else of the context (an ensemble keys such components
        jointly by the union of their fields); ``None``, the default,
        promises nothing.  Whoever overrides ``group_key`` or ``predict``
        restates this."""
        return None


class TrainableModel(IngressModel):
    """A model trained by single-pass, byte-weighted observation."""

    @abc.abstractmethod
    def observe(self, context: FlowContext, link_id: int,
                bytes_: float) -> None:
        """Accumulate one byte-weighted (flow, link) observation."""

    @abc.abstractmethod
    def finalize(self) -> None:
        """Freeze accumulated observations into the queryable model."""

    def size(self) -> int:
        """Number of stored entries (Table 3 / Table 11 model size)."""
        return 0
