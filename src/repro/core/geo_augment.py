"""Geographic-distance completion (paper §3.3.1, "Geographic distance of
peering") — the ``AL+G`` model.

Some flow aggregates never showed ``k`` alternative ingress links in
training even though alternatives exist.  The completion takes the base
model's best match (k=1, *ignoring* the availability prior so a withdrawn
top link still anchors the geography), reads off its peer AS and metro,
and appends that AS's other peering links ranked by geographic distance —
hot-potato routing says the nearest surviving link of the same peer is
where traffic most likely lands (paper §5.3: "hot potato routing is not
uncommon for outages").  The ranking is the WAN's nearest-first order
of the anchor's peer (:meth:`CloudWAN.nearest_peer_links`), sorted once
per link and kept: a completion walks it, skipping the links already
ranked or unavailable, and sorts nothing.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from ..pipeline.records import FlowContext
from ..topology.wan import CloudWAN
from .base import NO_LINKS, IngressModel, Prediction


class GeoAugmentedModel(IngressModel):
    """Wraps a base model, completing rankings with geographic fallback."""

    def __init__(self, base: IngressModel, wan: CloudWAN,
                 name: Optional[str] = None):
        self.base = base
        self.wan = wan
        self.name = name or f"{base.name}+G"
        if type(self).group_key is GeoAugmentedModel.group_key:
            # the base's key itself, no method frame; an override keeps its key
            setattr(self, "group_key", base.group_key)

    def predict(self, context: FlowContext, k: int,
                unavailable: FrozenSet[int] = NO_LINKS) -> List[Prediction]:
        predictions = list(self.base.predict(context, k, unavailable))
        if len(predictions) >= k:
            return predictions
        anchor = self.base.predict(context, 1)
        if not anchor:
            return predictions
        have = {p.link_id for p in predictions}
        # score appended links below the base ranking's tail
        tail = predictions[-1].score if predictions else anchor[0].score
        i = 0
        for link in self.wan.nearest_peer_links(anchor[0].link_id):
            if link not in have and link not in unavailable:
                i += 1
                predictions.append(Prediction(link, tail * 0.5 ** i))
                if len(predictions) == k:
                    break
        return predictions

    def group_key(self, context: FlowContext) -> object:
        """The completion is a pure function of the base model's answers."""
        return self.base.group_key(context)

    def size(self) -> int:
        return self.base.size()
