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
"""

from __future__ import annotations

from typing import FrozenSet, Mapping, Sequence, Tuple

from ..pipeline.records import FlowContext
from .base import NO_LINKS, IngressModel, Prediction

#: actual test traffic: flow context -> {link_id: bytes}
ActualsMap = Mapping[FlowContext, Mapping[int, float]]


def matched_bytes(actual_by_link: Mapping[int, float],
                  predictions: Sequence[Prediction]) -> float:
    """Bytes that arrived on any predicted link."""
    return sum(actual_by_link.get(p.link_id, 0.0) for p in predictions)


def volume_matched_bytes(actual_by_link: Mapping[int, float],
                         predictions: Sequence[Prediction]) -> float:
    """Bytes matched when the model must also apportion volumes."""
    total = sum(actual_by_link.values())
    return sum(
        min(p.score * total, actual_by_link.get(p.link_id, 0.0))
        for p in predictions
    )


def score_bytes(actuals: ActualsMap, model: IngressModel, k: int,
                unavailable: FrozenSet[int] = NO_LINKS,
                strict_volumes: bool = False) -> Tuple[float, float]:
    """``(matched bytes, total bytes)`` behind :func:`evaluate_accuracy`:
    the one scoring loop, which the evaluation runner also sums across
    an outage partition's slices before dividing."""
    matcher = volume_matched_bytes if strict_volumes else matched_bytes
    total = 0.0
    matched = 0.0
    for context, by_link in actuals.items():
        flow_bytes = sum(by_link.values())
        if flow_bytes <= 0.0:
            continue
        total += flow_bytes
        predictions = model.predict(context, k, unavailable)
        if predictions:
            matched += matcher(by_link, predictions)
    return matched, total


def evaluate_accuracy(
    actuals: ActualsMap,
    model: IngressModel,
    k: int,
    unavailable: FrozenSet[int] = NO_LINKS,
    strict_volumes: bool = False,
) -> float:
    """Top-k byte-weighted accuracy of a model over evaluation actuals.

    Args:
        actuals: per-flow-context actual bytes per ingress link.
        model: the model under evaluation.
        k: prediction budget.
        unavailable: the availability prior handed to the model (links in
            outage / withdrawn during this evaluation slice).
        strict_volumes: use the volume-matched variant.

    Returns:
        Matched bytes / total bytes, in [0, 1].  0.0 if there are no bytes.
    """
    matched, total = score_bytes(actuals, model, k, unavailable,
                                 strict_volumes)
    if total <= 0.0:
        return 0.0
    return matched / total
