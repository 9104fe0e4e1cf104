"""Sequential ensembles (paper §3.3.1, "Ensemble models").

``A/B`` means: use model A's prediction when it has one for the flow,
otherwise fall back to model B — *not* majority voting, so the most
specific (most accurate) model answers first and broader models add
transfer learning only where needed.  The served suite, ``Hist_AP/AL/A``
and AL+G over the three historical models, is built at the bottom, in
the one place it is: the service serves what :func:`build_suite` builds
and the paper tables score it (``EvaluationRunner.build_models``).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence

from ..pipeline.records import FlowContext
from ..topology.wan import CloudWAN
from .base import NO_LINKS, Answer, IngressModel
from .features import FEATURES_A, FEATURES_AL, FEATURES_AP, FeatureSet
from .geo_augment import GeoAugmentedModel
from .historical import HistoricalModel
from .training import KeyedTable

#: the base models' feature grains, in ensemble order: a rolling
#: window's fold is one table per grain, in this order
BASE_GRAINS = (FEATURES_AP, FEATURES_AL, FEATURES_A)


def _itself(context: FlowContext) -> object:
    """The projection onto every field."""
    return context


class SequentialEnsemble(IngressModel):
    """First-model-with-an-answer composition of ingress models."""

    def __init__(self, models: Sequence[IngressModel], name: Optional[str] = None):
        if not models:
            raise ValueError("an ensemble needs at least one model")
        self.models = tuple(models)
        self.name = name or "/".join(m.name for m in self.models)
        # components that state their ``key_fields`` are jointly keyed by
        # the union of those fields: one projection, no tuple per model
        self._union: Optional[Callable[[FlowContext], object]] = None
        stated = [m.key_fields for m in self.models]
        if None not in stated:
            named = {f for key_fields in stated for f in key_fields or ()}
            fields = tuple(f for f in FlowContext._fields if f in named)
            self._union = (_itself if fields == FlowContext._fields
                           else FeatureSet("union", fields).key)

    def answers(self, contexts: Sequence[FlowContext], k: int,
                prior: FrozenSet[int] = NO_LINKS) -> List[Answer]:
        """Each member answers only the rows its predecessors left empty."""
        first, *rest = self.models
        out = first.answers(contexts, k, prior)
        for model in rest:
            empty = [row for row, answer in enumerate(out) if not answer]
            if not empty:
                break
            for row, answer in zip(empty, model.answers(
                    [contexts[row] for row in empty], k, prior)):
                out[row] = answer
        return out

    def group_key(self, context: FlowContext) -> object:
        """Component keys jointly determine the first model that answers."""
        if self._union is None:
            return tuple(m.group_key(context) for m in self.models)
        return self._union(context)

    def size(self) -> int:
        """Sum of component sizes (paper §4.3: ensemble cost is the sum)."""
        return sum(m.size() for m in self.models)


def build_suite(tables: Iterable[KeyedTable],
                wan: CloudWAN) -> Dict[str, IngressModel]:
    """The served models by name, built from ``tables`` — the folded
    counts at each of :data:`BASE_GRAINS`, in that order, read one at a
    time."""
    base = [HistoricalModel.from_arrays(table, fs)
            for table, fs in zip(tables, BASE_GRAINS)]
    models: Dict[str, IngressModel] = {model.name: model for model in base}
    models["Hist_AL+G"] = GeoAugmentedModel(base[1], wan, name="Hist_AL+G")
    models["Hist_AP/AL/A"] = SequentialEnsemble(base, name="Hist_AP/AL/A")
    return models
