"""The batch form of a model written one context at a time.

``repro.core`` models implement only :meth:`IngressModel.answers`, the
batch, and read ``predict`` through it.  The references the tests hold
them to (the dict-built and sorting oracles) and the stubs of the
protocol tests rank one context at a time, as the models did before the
batch form; a :class:`PerContextModel` answers a batch with each
context's ``predict``, in order, and nothing else.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, List, Sequence

from repro.core.base import NO_LINKS, Answer, IngressModel, Prediction
from repro.pipeline.records import FlowContext


class PerContextModel(IngressModel):
    """A model whose ranking is its per-context ``predict``."""

    @abc.abstractmethod
    def predict(self, context: FlowContext, k: int,
                unavailable: FrozenSet[int] = NO_LINKS) -> List[Prediction]:
        """Top-``k`` predicted ingress links for one flow."""

    def answers(self, contexts: Sequence[FlowContext], k: int,
                prior: FrozenSet[int] = NO_LINKS) -> List[Answer]:
        return [tuple(self.predict(context, k, prior))
                for context in contexts]
