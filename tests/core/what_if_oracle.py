"""The numpy spill sum and per-call completion the ``what_if`` read path
is tested against.

``spill_from_groups`` is ``repro.core.base.spill_from_groups`` as it was
before it became one ``dict`` pass: the weights collected into lists,
then ``np.unique`` / ``np.bincount`` per link.  ``OracleGeoAugmentedModel``
is ``repro.core.geo_augment.GeoAugmentedModel`` as it was before the WAN
kept a nearest-first order per link: every completion rebuilds the
anchor peer's links and sorts them by ``(distance_km, link_id)``.  Both
bodies are unchanged but for the class name and the availability check
the package no longer answers.
``tests/properties/test_prop_what_if.py`` compares the package against
them to the bit, as ``tests/core/historical_oracle.py`` is for the
sorted-table model.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import NO_LINKS, IngressModel, Prediction
from repro.pipeline.records import FlowContext
from repro.topology.wan import CloudWAN
from tests.core.per_context import PerContextModel


def spill_from_groups(
    groups: Iterable[Tuple[Sequence[Prediction], float]],
) -> Dict[int, float]:
    """Per-link byte spill from grouped predictions.

    The accumulation half of ``what_if``: byte-weight each group's
    predictions by score, sum per link with numpy, and report bytes with
    no prediction under link id ``-1``.  The one spill sum of the
    package: every ``what_if`` ends here, so all of them produce
    bit-identical spill for the same groups in the same order.
    """
    link_ids: List[int] = []
    link_weights: List[float] = []
    unplaceable = 0.0
    for predictions, bytes_ in groups:
        total = 0.0
        for p in predictions:
            total += p.score
        if total <= 0.0:
            unplaceable += bytes_
            continue
        for p in predictions:
            link_ids.append(p.link_id)
            link_weights.append(bytes_ * p.score / total)
    spill: Dict[int, float] = {}
    if link_ids:
        links = np.asarray(link_ids, dtype=np.int64)
        unique, inverse = np.unique(links, return_inverse=True)
        sums = np.bincount(inverse.ravel(),
                           weights=np.asarray(link_weights,
                                              dtype=np.float64),
                           minlength=len(unique))
        spill = {int(link): float(total_)
                 for link, total_
                 in zip(unique.tolist(), sums.tolist())}
    if unplaceable > 0.0:
        spill[-1] = spill.get(-1, 0.0) + unplaceable
    return spill


class OracleGeoAugmentedModel(PerContextModel):
    """Wraps a base model, completing rankings with geographic fallback."""

    def __init__(self, base: IngressModel, wan: CloudWAN,
                 name: Optional[str] = None):
        self.base = base
        self.wan = wan
        self.name = name or f"{base.name}+G"

    def predict(self, context: FlowContext, k: int,
                unavailable: FrozenSet[int] = NO_LINKS) -> List[Prediction]:
        predictions = list(self.base.predict(context, k, unavailable))
        if len(predictions) >= k:
            return predictions
        anchor = self.base.predict(context, 1)
        if not anchor:
            return predictions
        anchor_link = self.wan.link(anchor[0].link_id)
        have = {p.link_id for p in predictions}
        candidates = [
            link for link in self.wan.links_of_peer(anchor_link.peer_asn)
            if link.link_id not in have and link.link_id not in unavailable
        ]
        candidates.sort(key=lambda l: (
            self.wan.metros.distance_km(anchor_link.metro, l.metro),
            l.link_id,
        ))
        # score appended links below the base ranking's tail
        tail = predictions[-1].score if predictions else anchor[0].score
        for i, link in enumerate(candidates[: k - len(predictions)]):
            predictions.append(Prediction(link.link_id,
                                          tail * 0.5 ** (i + 1)))
        return predictions

    def group_key(self, context: FlowContext) -> object:
        """The completion is a pure function of the base model's answers."""
        return self.base.group_key(context)

    def size(self) -> int:
        return self.base.size()
