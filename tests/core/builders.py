"""Models built from test rows the way the tree builds them.

``from_rows`` folds ``(flow context, link id, bytes)`` rows into a
``DayCounts`` — keys in first-seen order, each summed in row order, as
the feed's day tables are — and builds the model through its one
``from_arrays``: a historical model (or a subclass) from the table's
projection onto its grain, Naive Bayes from the finest-grain columns.
Bytes must be positive, as ``DayCounts`` requires; no rows is an empty
table and a model that predicts nothing.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, Type, TypeVar, Union

from repro.core import FeatureSet, HistoricalModel, NaiveBayesModel
from repro.core.training import DayCounts
from repro.pipeline.records import FlowContext

Model = TypeVar("Model", bound=Union[HistoricalModel, NaiveBayesModel])


def from_rows(cls: Type[Model], feature_set: FeatureSet,
              rows: Iterable[Tuple[FlowContext, int, float]],
              name: Optional[str] = None) -> Model:
    rows = list(rows)
    counts = DayCounts.fold(*zip(*rows)) if rows else DayCounts()
    if issubclass(cls, NaiveBayesModel):
        return cls.from_arrays(counts.to_arrays(), feature_set, name)
    return cls.from_arrays(counts.project(feature_set), feature_set, name)
