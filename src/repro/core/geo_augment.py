"""Geographic-distance completion (paper §3.3.1, "Geographic distance of
peering") — the ``AL+G`` model.

Some flow aggregates never showed ``k`` alternative ingress links in
training even though alternatives exist.  The completion takes the base
model's best match (its ranking's first row, read *without* the
availability prior so a withdrawn top link still anchors the geography),
reads off its peer AS and metro, and appends that AS's other peering
links ranked by geographic distance — hot-potato routing says the
nearest surviving link of the same peer is where traffic most likely
lands (paper §5.3: "hot potato routing is not uncommon for outages").
The ranking is the WAN's nearest-first order of the anchor's peer
(:meth:`CloudWAN.nearest_peer_links`), sorted once per link and kept: a
completion walks it, skipping the links already ranked or unavailable,
and sorts nothing.  A batch reads each base ranking once, so the base
must answer a prior with that ranking less its links (as historical
models do).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence

from ..pipeline.records import FlowContext
from ..topology.wan import CloudWAN
from .base import NO_LINKS, Answer, IngressModel, Prediction, check_k


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

    def answers(self, contexts: Sequence[FlowContext], k: int,
                prior: FrozenSet[int] = NO_LINKS) -> List[Answer]:
        check_k(k)
        out: List[Answer] = []
        for ranking in self.base.answers(contexts, k + len(prior)):
            row = [p for p in ranking if p.link_id not in prior][:k]
            if ranking and len(row) < k:
                have = {p.link_id for p in row}
                # score appended links below the base ranking's tail
                tail, i = (row[-1] if row else ranking[0]).score, 0
                for link in self.wan.nearest_peer_links(ranking[0].link_id):
                    if link not in have and link not in prior:
                        i += 1
                        row.append(Prediction(link, tail * 0.5 ** i))
                        if len(row) == k:
                            break
            out.append(tuple(row))
        return out

    def group_key(self, context: FlowContext) -> object:
        """The completion is a pure function of the base model's answers."""
        return self.base.group_key(context)

    def size(self) -> int:
        return self.base.size()
