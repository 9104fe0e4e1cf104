"""De-peering analysis (paper §8).

"In the course of maintaining a large WAN, it is natural to consider
de-peering to reduce cost and operational overhead with peers that add
low value."  This analysis quantifies the question for each peer: how
many bytes does its peering carry, and if the peer were removed
entirely, could the remaining links absorb the traffic TIPSY predicts
would shift to them?  The traffic is one CMS
:class:`~repro.cms.mitigation.TrafficSample`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.base import SpillPredictor
from ..topology.wan import CloudWAN
from .mitigation import TrafficSample, first_seen_totals
from .monitor import capacity_bytes


def _running_sum(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, to the bit (not pairwise)."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


@dataclass(frozen=True)
class DepeeringAssessment:
    """Can this peer be removed, and what happens if it is?"""

    peer_asn: int
    n_links: int
    carried_bytes: float
    carried_fraction: float       # of all assessed traffic
    # predicted landing spots of the peer's traffic, descending bytes
    predicted_spill: Tuple[Tuple[int, float], ...]
    # bytes TIPSY could not place anywhere (flows with no alternative)
    unplaceable_bytes: float
    # links the spill would push over the safety threshold
    overloaded_links: Tuple[int, ...]

    @property
    def safe(self) -> bool:
        """Removable without predicted overload or stranded traffic."""
        return not self.overloaded_links and self.unplaceable_bytes == 0.0


class DepeeringAnalyzer:
    """What-if analysis of removing whole peers."""

    def __init__(self, wan: CloudWAN, model: SpillPredictor,
                 safety_threshold: float = 0.85, prediction_k: int = 3):
        self.wan = wan
        self.model = model
        self.safety_threshold = safety_threshold
        self.prediction_k = prediction_k

    def assess(
        self,
        peer_asn: int,
        sample: TrafficSample,
        hours: float = 1.0,
    ) -> DepeeringAssessment:
        """Assess removing one peer, given observed traffic.

        Args:
            peer_asn: the peer to hypothetically remove.
            sample: observed traffic (typically one peak hour, as the
                CMS uses — paper §4).
            hours: duration the sample spans, for utilization math.
        """
        peer_links = frozenset(
            l.link_id for l in self.wan.links_of_peer(peer_asn))
        if not peer_links:
            raise KeyError(f"AS{peer_asn} does not peer with the WAN")

        base_load = first_seen_totals(sample.link_ids, sample.bytes)
        on_peer = np.isin(sample.link_ids, sorted(peer_links))
        peer_bytes = sample.bytes[on_peer]
        total, carried = _running_sum(sample.bytes), _running_sum(peer_bytes)
        affected = [(sample.contexts[row], bytes_) for row, bytes_ in zip(
            sample.flow_rows[on_peer].tolist(), peer_bytes.tolist())]

        spill = self.model.what_if(affected, peer_links, self.prediction_k)
        unplaceable = spill.pop(-1, 0.0)

        overloaded = []
        for link_id, extra in spill.items():
            full = capacity_bytes(self.wan.link(link_id).capacity_gbps) * hours
            projected = (base_load.get(link_id, 0.0) + extra) / full
            if projected > self.safety_threshold:
                overloaded.append(link_id)

        return DepeeringAssessment(
            peer_asn=peer_asn,
            n_links=len(peer_links),
            carried_bytes=carried,
            carried_fraction=carried / total if total else 0.0,
            predicted_spill=tuple(sorted(spill.items(),
                                         key=lambda kv: (-kv[1], kv[0]))),
            unplaceable_bytes=unplaceable,
            overloaded_links=tuple(sorted(overloaded)),
        )

    def rank_candidates(
        self,
        sample: TrafficSample,
        max_carried_fraction: float = 0.02,
        hours: float = 1.0,
    ) -> List[DepeeringAssessment]:
        """All low-value peers whose removal TIPSY deems safe.

        Sorted by carried traffic ascending — the least valuable peering
        first, the natural de-peering order.
        """
        candidates = []
        for peer_asn in self.wan.peer_asns:
            assessment = self.assess(peer_asn, sample, hours)
            if (assessment.carried_fraction <= max_carried_fraction
                    and assessment.safe):
                candidates.append(assessment)
        candidates.sort(key=lambda a: a.carried_bytes)
        return candidates
