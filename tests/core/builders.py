"""Models built from test rows the way the tree builds them.

``from_rows`` folds ``(flow context, link id, bytes)`` rows into a
``DayCounts`` — keys in first-seen order, each summed in row order, as
the feed's day tables are — and builds the model through its one
``from_arrays``: a historical model (or a subclass) from the table's
projection onto its grain, Naive Bayes from the finest-grain columns.
Bytes must be positive, as ``DayCounts`` requires; no rows is an empty
table and a model that predicts nothing.

``actuals_table`` turns the ``{flow context: {link: bytes}}`` literals
tests write into the keyed table the accuracy scorer reads.
"""

from __future__ import annotations

from typing import (Dict, Iterable, Mapping, Optional, Tuple, Type, TypeVar,
                    Union)

import numpy as np

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


def actuals_table(actuals: Mapping[FlowContext, Mapping[int, float]]
                  ) -> Dict[str, np.ndarray]:
    """The map as a keyed table (``k0..k4`` the context, ``k5`` the link,
    ``value`` the bytes), rows in the map's order; entries of no bytes
    are left out, as the scorer skips them."""
    rows = [(context, link, bytes_) for context, by_link in actuals.items()
            for link, bytes_ in by_link.items() if bytes_ > 0.0]
    counts = DayCounts.fold(*zip(*rows)) if rows else DayCounts()
    return counts.to_arrays()
