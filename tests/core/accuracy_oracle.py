"""The dict scorer, kept as the reference for the columnar one.

Before ``repro.core.accuracy.ActualsTable`` scored keyed tables, the
evaluation scored ``{flow context: {link: bytes}}`` maps (``ActualsMap``)
one context at a time: ``score_bytes`` asked the model once per context
with the slice's prior and added up what ``matched_bytes`` (or, strict,
``volume_matched_bytes``) earned.  ``tests/properties/test_prop_accuracy.py``
holds the columnar scorer to it.

One change from the code as it stood: the per-context sums are running
float sums.  The builtin ``sum`` compensates float sums from Python 3.12
on, which would make the strict variant's reference depend on the
interpreter.  Link-matched sums of the feed's byte counts (multiples of
2**15) are exact either way.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Sequence, Tuple

import numpy as np

from repro.core.base import NO_LINKS, IngressModel, Prediction
from repro.pipeline.records import FlowContext

#: actual test traffic: flow context -> {link_id: bytes}
ActualsMap = Mapping[FlowContext, Mapping[int, float]]


def actuals_map(table: Mapping[str, np.ndarray]) -> Dict[FlowContext,
                                                       Dict[int, float]]:
    """A keyed table (``k0..k4`` the context, ``k5`` the link) walked row
    by row into the map, contexts and links in first-seen order."""
    *fields, links = (table[f"k{i}"].tolist() for i in range(6))
    out: Dict[FlowContext, Dict[int, float]] = {}
    for context, link, bytes_ in zip(map(FlowContext._make, zip(*fields)),
                                     links, table["value"].tolist()):
        by_link = out.setdefault(context, {})
        by_link[link] = by_link.get(link, 0.0) + bytes_
    return out


def _running_sum(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def matched_bytes(actual_by_link: Mapping[int, float],
                  predictions: Sequence[Prediction]) -> float:
    """Bytes that arrived on any predicted link."""
    return _running_sum(actual_by_link.get(p.link_id, 0.0)
                        for p in predictions)


def volume_matched_bytes(actual_by_link: Mapping[int, float],
                         predictions: Sequence[Prediction]) -> float:
    """Bytes matched when the model must also apportion volumes."""
    total = _running_sum(actual_by_link.values())
    return _running_sum(
        min(p.score * total, actual_by_link.get(p.link_id, 0.0))
        for p in predictions
    )


def score_bytes(actuals: ActualsMap, model: IngressModel, k: int,
                unavailable: FrozenSet[int] = NO_LINKS,
                strict_volumes: bool = False) -> Tuple[float, float]:
    """``(matched bytes, total bytes)``: the one scoring loop, which the
    evaluation runner also summed across an outage partition's slices
    before dividing."""
    matcher = volume_matched_bytes if strict_volumes else matched_bytes
    total = 0.0
    matched = 0.0
    for context, by_link in actuals.items():
        flow_bytes = _running_sum(by_link.values())
        if flow_bytes <= 0.0:
            continue
        total += flow_bytes
        predictions = model.predict(context, k, unavailable)
        if predictions:
            matched += matcher(by_link, predictions)
    return matched, total


def accuracy(actuals: ActualsMap, model: IngressModel, k: int,
             unavailable: FrozenSet[int] = NO_LINKS,
             strict_volumes: bool = False) -> float:
    """``evaluate_accuracy`` as it read over the map."""
    matched, total = score_bytes(actuals, model, k, unavailable,
                                 strict_volumes)
    if total <= 0.0:
        return 0.0
    return matched / total
