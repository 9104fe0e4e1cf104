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
cascade) and TIPSY-guided (coordinated withdrawal, no cascade).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

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
from ..core.features import FEATURES_AL
from ..core.geo_augment import GeoAugmentedModel
from ..core.historical import HistoricalModel
from ..core.training import DayCounts
from ..pipeline.records import AggColumns, FlowContext
from ..telemetry.ipfix import IpfixExporter
from ..topology.asgraph import ASGraph, ASNode, ASRole
from ..topology.geography import MetroCatalog
from ..topology.relationships import Relationship
from ..topology.wan import CloudWAN, DestPrefix, PeeringLink, Region

if TYPE_CHECKING:  # the §6 replay trains through this module
    from .incident_east_asia import EastAsiaWorld

#: metro codes for the incident's two locations
L1, L2 = "iad", "atl"

CLOUD_ASN = 8075
AS_B = 65001      # the transit peer with I1..I4
AS_C = 65002      # an alternative transit
AS_T1 = 65000     # tier-1 above everyone
AS_A = 65100      # the enterprise source AS


@dataclass
class IncidentWorld:
    """The hand-built topology and traffic of the §2 incident."""

    graph: ASGraph
    wan: CloudWAN
    simulator: IngressSimulator
    flows: List[Tuple[FlowContext, int, str, int, int]]
    """(context, src_prefix, src_metro, dest_prefix, src_asn) per flow."""
    exporter: IpfixExporter
    # link ids of the named incident links
    i1: int
    i2: int
    i3: int
    i4: int

    # traffic model: a diurnal baseline plus an incident surge
    base_gbps: float = 210.0
    surge_gbps: float = 345.0
    surge_start_hour: int = 21 * 24 + 21   # "04 January, around 21:00"
    surge_hours: int = 10

    def demand_gbps(self, hour: int) -> float:
        local = hour % 24
        diurnal = 1.0 + 0.35 * np.cos(2 * np.pi * (local - 14) / 24.0)
        demand = self.base_gbps * diurnal
        if self.surge_start_hour <= hour < self.surge_start_hour + self.surge_hours:
            demand += self.surge_gbps
        return float(demand)

    def entries_for_hour(self, hour: int,
                         state: AdvertisementState) -> TrafficSample:
        """Per-flow traffic (post-routing) for one hour."""
        total_bytes = self.demand_gbps(hour) * 1e9 / 8.0 * 3600.0
        per_flow = total_bytes / len(self.flows)
        day = hour // 24
        return sample_flows(self.simulator, self.flows, per_flow, state, day)


def sample_flows(simulator: IngressSimulator,
                 flows: Sequence[Tuple[FlowContext, int, str, int, int]],
                 per_flow: float, state: AdvertisementState,
                 day: int) -> TrafficSample:
    """Every flow's ``per_flow`` bytes spread over its resolved shares,
    as a CMS sample over the flows' contexts."""
    dests = np.array([flow[3] for flow in flows], dtype=np.int64)
    asns = np.array([flow[4] for flow in flows], dtype=np.int64)
    sources = np.array([flow[1] for flow in flows], dtype=np.int64)
    rows, links, fracs, *_read = simulator.resolve_shares(
        asns, [flow[2] for flow in flows], sources, dests, state,
        day >= simulator.shift_days(asns, sources, dests))
    return TrafficSample(links, dests[rows], rows, per_flow * fracs,
                         [flow[0] for flow in flows])


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

    flows = []
    for i in range(n_flows):
        src_prefix = 10_000 + i
        context = FlowContext(src_asn=AS_A, src_prefix=src_prefix,
                              src_loc=0, dest_region=0, dest_service=0)
        flows.append((context, src_prefix, "nyc", 0, AS_A))
    exporter = IpfixExporter(seed=seed)
    return IncidentWorld(graph=graph, wan=wan, simulator=simulator,
                         flows=flows, exporter=exporter,
                         i1=0, i2=1, i3=2, i4=3)


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


def train_incident_model(world: Union[IncidentWorld, EastAsiaWorld],
                         train_hours: int) -> GeoAugmentedModel:
    """Train Hist_AL+G on an incident world's pre-incident window
    (paper: 3 weeks): each hour's IPFIX-sampled estimate, its entries of
    positive bytes in sample order, folded into one ``DayCounts``."""
    state = AdvertisementState(world.wan)
    contexts = np.array([flow[0] for flow in world.flows], dtype=np.int64)
    counts = DayCounts()
    for hour in range(train_hours):
        sample = world.entries_for_hour(hour, state)
        sampled = world.exporter.sample_bytes(sample.bytes, hour)
        kept = sampled > 0.0
        counts.add_hour(AggColumns(
            hour, sample.link_ids[kept],
            *contexts[sample.flow_rows[kept]].T, sampled[kept]))
    hist_al = HistoricalModel.from_arrays(counts.project(FEATURES_AL),
                                          FEATURES_AL)
    return GeoAugmentedModel(hist_al, world.wan, name="Hist_AL+G")


def replay_incident(world: IncidentWorld, with_tipsy: bool,
                    train_hours: Optional[int] = None,
                    horizon_hours: Optional[int] = None) -> IncidentReport:
    """Run the incident through CMS, blind or TIPSY-guided."""
    train_hours = train_hours or world.surge_start_hour
    horizon_hours = horizon_hours or (
        world.surge_start_hour + world.surge_hours + 6)
    predictor = train_incident_model(world, train_hours) if with_tipsy else None
    cms = CongestionMitigationSystem(
        world.wan,
        CMSConfig(coordinated=with_tipsy),
        predictor=predictor,
    )
    state = AdvertisementState(world.wan)

    congested_link_hours = 0
    max_util: Dict[int, float] = {}
    timeline: Dict[int, List[Tuple[int, float]]] = {
        world.i1: [], world.i2: [], world.i3: [], world.i4: []}
    for hour in range(world.surge_start_hour - 2, horizon_hours):
        sample = world.entries_for_hour(hour, state)
        link_bytes = first_seen_totals(sample.link_ids, sample.bytes)
        for link_id, bytes_ in link_bytes.items():
            util = cms.monitor.utilization(link_id, bytes_)
            max_util[link_id] = max(max_util.get(link_id, 0.0), util)
            if util > cms.config.threshold:
                congested_link_hours += 1
            if link_id in timeline:
                timeline[link_id].append((hour, util))
        cms.handle_sample(hour, state, sample)
    return IncidentReport(
        with_tipsy=with_tipsy,
        actions=list(cms.actions),
        congested_link_hours=congested_link_hours,
        max_utilization=max_util,
        utilization_timeline=timeline,
    )
