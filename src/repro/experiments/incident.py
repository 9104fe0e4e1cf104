"""Replay of the §2 cascading ingress congestion incident.

The paper opens with a real incident (04 January 2022): a 400G peering
link I1 with peer AS B in location L1 hit 90% ingress utilization; a BGP
withdrawal moved the traffic onto the parallel link I2 (same peer, same
metro), overloading it; the next withdrawal pushed the load onto the two
100G links I3/I4 in location L2, overloading those too, before a final
round of withdrawals dispersed the traffic.  A TIPSY model trained on
the preceding weeks correctly identified I2, then I3/I4, as the links at
risk — so an operator armed with it could have withdrawn from all four
simultaneously.

This module builds that world by hand — a peer AS B with exactly that
link layout, an enterprise customer AS A behind it, a surge of VPN
traffic toward one anycast destination prefix — and replays the incident
through the real CMS twice: blind (pre-TIPSY behaviour, producing the
cascade) and TIPSY-guided, where CMS asks a :class:`TipsyService` fed
the pre-incident hours (coordinated withdrawal, no cascade).

:class:`IncidentWorld` is the world of both incident replays, this one
and §6's (``incident_east_asia``): the same demand curve, hourly traffic
and service, and one hour loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..bgp.simulator import IngressSimulator, SimulatorParams
from ..bgp.state import AdvertisementState
from ..cms.mitigation import (
    CMSConfig,
    CongestionMitigationSystem,
    MitigationAction,
    TrafficSample,
    first_seen_totals,
)
from ..core.service import TipsyService
from ..pipeline.records import AggColumns, FlowContext
from ..telemetry.ipfix import IpfixExporter
from ..topology.asgraph import ASGraph, ASNode, ASRole
from ..topology.geography import MetroCatalog
from ..topology.relationships import Relationship
from ..topology.wan import CloudWAN, DestPrefix, PeeringLink, Region

#: metro codes for the incident's two locations
L1, L2 = "iad", "atl"

CLOUD_ASN = 8075
AS_B = 65001      # the transit peer with I1..I4
AS_C = 65002      # an alternative transit
AS_T1 = 65000     # tier-1 above everyone
AS_A = 65100      # the enterprise source AS


@dataclass
class IncidentWorld:
    """A hand-built incident: the WAN and its ground-truth routing, the
    flows toward it as aligned columns (a flow's context carries its
    source AS and prefix), and their demand — a diurnal baseline peaking
    at ``peak_hour`` plus a surge of ``surge_hours``."""

    wan: CloudWAN
    simulator: IngressSimulator
    contexts: List[FlowContext]
    src_metros: List[str]
    dest_prefixes: np.ndarray
    #: link id of each named incident link
    links: Dict[str, int]
    base_gbps: float
    surge_gbps: float
    surge_start_hour: int
    surge_hours: int
    diurnal_swing: float
    peak_hour: int

    def __post_init__(self) -> None:
        # the contexts as an (n, 5) array, the flows' (minor, major)
        # drift shift days (no replay moves them) and the IPFIX sampler
        self.columns = np.array(self.contexts, dtype=np.int64)
        self.shift_days = self.simulator.shift_days(
            self.columns[:, 0], self.columns[:, 1], self.dest_prefixes)
        self.exporter = IpfixExporter(seed=self.simulator.seed)

    def demand_gbps(self, hour: int) -> float:
        local = hour % 24
        diurnal = 1.0 + self.diurnal_swing * np.cos(
            2 * np.pi * (local - self.peak_hour) / 24.0)
        demand = self.base_gbps * diurnal
        if 0 <= hour - self.surge_start_hour < self.surge_hours:
            demand += self.surge_gbps
        return float(demand)

    def entries_for_hour(self, hour: int,
                         state: AdvertisementState) -> TrafficSample:
        """Per-flow traffic (post-routing) for one hour: each flow's even
        share of the demand spread over its resolved links."""
        total_bytes = self.demand_gbps(hour) * 1e9 / 8.0 * 3600.0
        per_flow = total_bytes / len(self.contexts)
        rows, links, fracs, *_read = self.simulator.resolve_shares(
            self.columns[:, 0], self.src_metros, self.columns[:, 1],
            self.dest_prefixes, state, hour // 24 >= self.shift_days)
        return TrafficSample(links, self.dest_prefixes[rows], rows,
                             per_flow * fracs, self.contexts)

    def service(self, hours: int) -> TipsyService:
        """A :class:`TipsyService` fed the world's first ``hours`` hours
        (paper: the preceding weeks) as IPFIX-sampled aggregates under
        full availability; it serves the days those hours complete."""
        service = TipsyService(self.wan)
        state = AdvertisementState(self.wan)
        for hour in range(hours):
            sample = self.entries_for_hour(hour, state)
            sampled = self.exporter.sample_bytes(sample.bytes, hour)
            kept = sampled > 0.0
            service.ingest_hour(hour, AggColumns(
                hour, sample.link_ids[kept],
                *self.columns[sample.flow_rows[kept]].T, sampled[kept]))
        return service

    def replay_hours(self, cms: CongestionMitigationSystem
                     ) -> Iterator[Tuple[int, TrafficSample,
                                         List[MitigationAction]]]:
        """Two hours before the surge to six after it, each hour's
        sample and the actions CMS took on it (over one advertisement
        state, which CMS changes)."""
        state = AdvertisementState(self.wan)
        for hour in range(self.surge_start_hour - 2,
                          self.surge_start_hour + self.surge_hours + 6):
            sample = self.entries_for_hour(hour, state)
            yield hour, sample, cms.handle_sample(hour, state, sample)


def build_incident_world(seed: int = 0, n_flows: int = 140) -> IncidentWorld:
    """Construct the §2 world: AS B with I1/I2 (400G, L1) and I3/I4
    (100G, L2), plus global spare capacity, and an enterprise AS A whose
    VPN traffic enters near L1."""
    metros = MetroCatalog()
    graph = ASGraph(metros)
    world_metros = (L1, L2, "chi", "dfw", "lax", "lon", "fra", "sin", "tyo")
    graph.add_as(ASNode(AS_T1, ASRole.TIER1, tuple(metros.names)))
    graph.add_as(ASNode(AS_B, ASRole.TRANSIT, world_metros))
    graph.add_as(ASNode(AS_C, ASRole.TRANSIT, world_metros))
    graph.add_as(ASNode(AS_A, ASRole.STUB, ("nyc",)))
    graph.add_link(AS_B, AS_T1, Relationship.PROVIDER)
    graph.add_link(AS_C, AS_T1, Relationship.PROVIDER)
    graph.add_link(AS_A, AS_B, Relationship.PROVIDER)

    links = [
        PeeringLink(0, AS_B, L1, f"{L1}-er1", 400.0),   # I1
        PeeringLink(1, AS_B, L1, f"{L1}-er2", 400.0),   # I2
        PeeringLink(2, AS_B, L2, f"{L2}-er1", 100.0),   # I3
        PeeringLink(3, AS_B, L2, f"{L2}-er1", 100.0),   # I4
    ]
    link_id = 4
    # the absorb tier: parallel 400G links one metro ring further out
    for metro in ("chi", "chi", "dfw", "dfw", "lax", "lon", "fra", "sin",
                  "tyo"):
        links.append(PeeringLink(link_id, AS_B, metro,
                                 f"{metro}-er{1 + link_id % 2}", 400.0))
        link_id += 1
    for metro in (L1, "chi", "lon", "sin"):
        links.append(PeeringLink(link_id, AS_C, metro,
                                 f"{metro}-er1", 400.0))
        link_id += 1
    for metro in (L1, "lon", "tyo"):
        links.append(PeeringLink(link_id, AS_T1, metro,
                                 f"{metro}-er2", 400.0))
        link_id += 1

    regions = [Region(f"{L1}-region", L1), Region("lon-region", "lon")]
    dests = [
        DestPrefix(0, "100.64.0.0/10", f"{L1}-region", "vpn-gateway"),
        DestPrefix(1, "100.128.0.0/16", f"{L1}-region", "storage"),
        DestPrefix(2, "100.129.0.0/16", "lon-region", "web"),
    ]
    wan = CloudWAN(CLOUD_ASN, links, regions, dests, metros)

    # A short pool radius keeps the cascade geographically tight, as in
    # the incident: the L1 parallel pair first (I1/I2 are the only
    # pre-incident exits), then L2 (I3/I4), then the absorb tier.
    simulator = IngressSimulator(graph, wan, SimulatorParams(
        candidate_pool_size=4,
        reroute_radius_km=600.0,
        locality=0.45,
        minor_drift_daily=0.0,
        major_drift_daily=0.0,
    ), seed=seed)

    # every flow: AS A from nyc toward the VPN /10
    contexts = [FlowContext(src_asn=AS_A, src_prefix=10_000 + i, src_loc=0,
                            dest_region=0, dest_service=0)
                for i in range(n_flows)]
    return IncidentWorld(
        wan=wan, simulator=simulator, contexts=contexts,
        src_metros=["nyc"] * n_flows,
        dest_prefixes=np.zeros(n_flows, dtype=np.int64),
        links={"I1": 0, "I2": 1, "I3": 2, "I4": 3},
        base_gbps=210.0, surge_gbps=345.0,
        surge_start_hour=21 * 24 + 21,   # "04 January, around 21:00"
        surge_hours=10, diurnal_swing=0.35, peak_hour=14)


@dataclass
class IncidentReport:
    """Outcome of one incident replay."""

    with_tipsy: bool
    actions: List[MitigationAction]
    congested_link_hours: int
    max_utilization: Dict[int, float]
    utilization_timeline: Dict[int, List[Tuple[int, float]]]

    @property
    def withdrawal_rounds(self) -> int:
        """Distinct hours in which withdrawals were issued."""
        return len({a.sample_index for a in self.actions
                    if a.kind.startswith("withdraw")})


def replay_incident(world: IncidentWorld, with_tipsy: bool) -> IncidentReport:
    """Run the incident through CMS, blind or TIPSY-guided."""
    service = world.service(world.surge_start_hour) if with_tipsy else None
    cms = CongestionMitigationSystem(
        world.wan, CMSConfig(coordinated=with_tipsy), predictor=service)
    congested_link_hours = 0
    max_util: Dict[int, float] = {}
    timeline: Dict[int, List[Tuple[int, float]]] = {
        link_id: [] for link_id in world.links.values()}
    for hour, sample, _taken in world.replay_hours(cms):
        link_bytes = first_seen_totals(sample.link_ids, sample.bytes)
        for link_id, bytes_ in link_bytes.items():
            util = cms.monitor.utilization(link_id, bytes_)
            max_util[link_id] = max(max_util.get(link_id, 0.0), util)
            if util > cms.config.threshold:
                congested_link_hours += 1
            if link_id in timeline:
                timeline[link_id].append((hour, util))
    return IncidentReport(
        with_tipsy=with_tipsy,
        actions=list(cms.actions),
        congested_link_hours=congested_link_hours,
        max_utilization=max_util,
        utilization_timeline=timeline,
    )
