"""Replay of the §6 East Asia incident (06 September 2021).

"A peering link in East Asia hit high utilization.  CMS withdrew two
/24 prefixes.  ...  TIPSY identified three links that the traffic would
shift to, with two different transit providers, two in the same
metropolitan region and one in a different country in East Asia ...
After CMS issued prefix withdrawals, traffic shifted as predicted to
those links.  2 hours after the withdrawals, traffic levels had dropped
sufficiently that the prefixes were re-announced by CMS."

The world: a hot peering link in Hong Kong with transit provider P,
alternates with P and a second transit Q in the same metro, and a
P link in Taipei (different country).  Two destination /24s carry the
surge; the replay checks each sentence of the paper's account.  CMS
asks a ``TipsyService`` fed the 14 completed pre-incident days.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from ..bgp.simulator import IngressSimulator, SimulatorParams
from ..cms.mitigation import (
    CMSConfig,
    CongestionMitigationSystem,
    MitigationAction,
    first_seen_totals,
)
from ..pipeline.records import FlowContext
from ..topology.asgraph import ASGraph, ASNode, ASRole
from ..topology.geography import MetroCatalog
from ..topology.relationships import Relationship
from ..topology.wan import CloudWAN, DestPrefix, PeeringLink, Region
from .incident import IncidentWorld

CLOUD_ASN = 8075
AS_P = 65020       # first transit provider (owns the hot link)
AS_Q = 65021       # second transit provider, same metro
AS_SRC = 65120     # enterprise source, single-homed behind P
AS_DUAL = 65121    # enterprise source, dual-homed behind P and Q


def build_east_asia_world(seed: int = 0,
                          n_flows: int = 120) -> IncidentWorld:
    """The §6 world: hot HKG link, alternates in HKG and Taipei."""
    metros = MetroCatalog()
    graph = ASGraph(metros)
    footprint_p = ("hkg", "tpe", "sin", "tyo")
    footprint_q = ("hkg", "sin")
    graph.add_as(ASNode(AS_P, ASRole.TRANSIT, footprint_p))
    graph.add_as(ASNode(AS_Q, ASRole.TRANSIT, footprint_q))
    graph.add_as(ASNode(AS_SRC, ASRole.STUB, ("hkg",)))
    graph.add_as(ASNode(AS_DUAL, ASRole.STUB, ("hkg",)))
    graph.add_link(AS_SRC, AS_P, Relationship.PROVIDER)
    graph.add_link(AS_DUAL, AS_P, Relationship.PROVIDER)
    graph.add_link(AS_DUAL, AS_Q, Relationship.PROVIDER)

    links = [
        PeeringLink(0, AS_P, "hkg", "hkg-er1", 100.0),  # the hot link
        PeeringLink(1, AS_P, "hkg", "hkg-er2", 100.0),  # alt, same peer
        PeeringLink(2, AS_Q, "hkg", "hkg-er1", 100.0),  # alt, other peer
        PeeringLink(3, AS_P, "tpe", "tpe-er1", 100.0),  # alt, other country
        PeeringLink(4, AS_P, "sin", "sin-er1", 100.0),
        PeeringLink(5, AS_Q, "sin", "sin-er1", 100.0),
        PeeringLink(6, AS_P, "tyo", "tyo-er1", 100.0),
    ]
    regions = [Region("hkg-region", "hkg")]
    dests = [
        DestPrefix(0, "100.80.1.0/24", "hkg-region", "conferencing"),
        DestPrefix(1, "100.80.2.0/24", "hkg-region", "storage"),
        DestPrefix(2, "100.80.3.0/24", "hkg-region", "web"),
        DestPrefix(3, "100.80.4.0/24", "hkg-region", "vpn-gateway"),
    ]
    wan = CloudWAN(CLOUD_ASN, links, regions, dests, metros)

    # the enterprise source is dual-homed with real egress load
    # balancing (origin_split): most bytes ride provider P into the hot
    # link, a steady fraction rides provider Q — so TIPSY's history
    # covers alternates at two different transit providers, as in §6
    simulator = IngressSimulator(graph, wan, SimulatorParams(
        candidate_pool_size=4,
        reroute_radius_km=1000.0,
        locality=0.45,
        origin_split=0.30,
        minor_drift_daily=0.0,
        major_drift_daily=0.0,
    ), seed=seed)

    # flow i toward /24 i % 4 (service alternating); 70% of flows sit
    # behind P alone, 30% are dual-homed — the mixed-provider population
    # whose alternates span two transits
    contexts = [FlowContext(AS_SRC if i % 10 < 7 else AS_DUAL, 20_000 + i,
                            0, 0, i % 2) for i in range(n_flows)]
    return IncidentWorld(
        wan=wan, simulator=simulator, contexts=contexts,
        src_metros=["hkg"] * n_flows,
        dest_prefixes=np.arange(n_flows, dtype=np.int64) % 4,
        links={"hot": 0, "hkg,P": 1, "hkg,Q": 2, "tpe,P": 3},
        base_gbps=66.0, surge_gbps=120.0, surge_start_hour=14 * 24 + 13,
        surge_hours=2,   # the paper's surge calms after ~2 hours
        diurnal_swing=0.30, peak_hour=13)


@dataclass
class EastAsiaReport:
    """Outcome of the §6 replay, matched to the paper's account."""

    withdrawn_prefixes: Tuple[int, ...]
    withdrawal_hour: Optional[int]
    reannounce_hour: Optional[int]
    predicted_links: Tuple[int, ...]
    actual_shift_links: Tuple[int, ...]
    max_alt_utilization: float
    actions: List[MitigationAction]

    @property
    def hours_until_reannounce(self) -> Optional[int]:
        if self.withdrawal_hour is None or self.reannounce_hour is None:
            return None
        return self.reannounce_hour - self.withdrawal_hour


def replay_east_asia(world: IncidentWorld) -> EastAsiaReport:
    """Run the §6 incident through the TIPSY-guided CMS."""
    service = world.service(world.surge_start_hour)
    hot = world.links["hot"]

    # TIPSY's pre-incident answer: across the affected flow population,
    # where would the hot link's traffic go?  (the paper queries TIPSY
    # for all the flows that arrived on the hot link)
    predicted = tuple(sorted({
        p.link_id for answer in service.predict_batch(
            world.contexts[:40], 3, {hot}) for p in answer}))

    # operators shift well below the trigger (§2's mitigation dropped a
    # 90%-hot link to ~18%); a 55% target needs both top /24s moved
    cms = CongestionMitigationSystem(world.wan, CMSConfig(target=0.55),
                                     predictor=service)
    withdrawal_hour = reannounce_hour = None
    withdrawn: Set[int] = set()
    shift_links: Set[int] = set()
    max_alt_util = 0.0
    for hour, sample, actions in world.replay_hours(cms):
        for action in actions:
            if action.kind.startswith("withdraw"):
                withdrawal_hour = withdrawal_hour or hour
                withdrawn.add(action.dest_prefix_id)
            elif action.kind == "reannounce" and reannounce_hour is None:
                reannounce_hour = hour
        if withdrawal_hour is not None:
            links = sample.link_ids
            shifted = np.isin(sample.dest_prefix_ids,
                              sorted(withdrawn)) & (links != hot)
            shift_links.update(links[shifted].tolist())
            link_bytes = first_seen_totals(links, sample.bytes)
            for link_id in shift_links:
                max_alt_util = max(max_alt_util, cms.monitor.utilization(
                    link_id, link_bytes.get(link_id, 0.0)))
    return EastAsiaReport(
        withdrawn_prefixes=tuple(sorted(withdrawn)),
        withdrawal_hour=withdrawal_hour,
        reannounce_hour=reannounce_hour,
        predicted_links=predicted,
        actual_shift_links=tuple(sorted(shift_links)),
        max_alt_utilization=max_alt_util,
        actions=list(cms.actions),
    )
