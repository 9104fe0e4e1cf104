"""The cloud WAN: edge routers, peering links, regions, services, prefixes.

This is the network whose ingress TIPSY predicts.  A peering link is
modelled at the granularity of an individual eBGP session (paper §3.1): a
(peer AS, metro, router, session index) tuple with a capacity.  The WAN
advertises a set of anycast destination prefixes on (by default) all links;
each destination prefix maps to a cloud region and a service type — the two
destination features of §3.2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .asgraph import ASGraph
from .geography import MetroCatalog

#: Default catalogue of cloud service types (paper: ~200; scaled down).
DEFAULT_SERVICES: Tuple[str, ...] = (
    "storage", "web", "conferencing", "email", "ai-training", "video-analytics",
    "vpn-gateway", "cdn-origin", "database", "gaming", "iot-hub", "backup",
    "search", "auth", "queueing", "monitoring", "code-hosting", "virtual-desktop",
    "media-upload", "dns", "cache", "batch", "speech", "maps",
)


@dataclass(frozen=True)
class PeeringLink:
    """A single eBGP peering session between the WAN and a neighbor AS."""

    link_id: int
    peer_asn: int
    metro: str
    router: str
    capacity_gbps: float
    kind: str = "direct"  # "direct" | "ixp"

    @property
    def name(self) -> str:
        return f"{self.router}|AS{self.peer_asn}|{self.link_id}"


@dataclass(frozen=True)
class Region:
    """A cloud region (destination geography feature)."""

    name: str
    metro: str


@dataclass(frozen=True)
class DestPrefix:
    """An anycast destination prefix advertised by the WAN.

    Each prefix hosts one service type in one region; flows to it carry the
    (destination region, destination type) features of paper §3.2.
    """

    prefix_id: int
    cidr: str
    region: str
    service: str


class CloudWAN:
    """The cloud provider's WAN: its peering surface and destinations."""

    def __init__(
        self,
        asn: int,
        links: Sequence[PeeringLink],
        regions: Sequence[Region],
        dest_prefixes: Sequence[DestPrefix],
        metros: MetroCatalog,
    ):
        if not links:
            raise ValueError("a WAN needs at least one peering link")
        self.asn = asn
        self.metros = metros
        self.links: Tuple[PeeringLink, ...] = tuple(links)
        self.regions: Tuple[Region, ...] = tuple(regions)
        self.dest_prefixes: Tuple[DestPrefix, ...] = tuple(dest_prefixes)

        self._link_by_id: Dict[int, PeeringLink] = {}
        self._links_by_peer: Dict[int, List[PeeringLink]] = {}
        for link in self.links:
            if link.link_id in self._link_by_id:
                raise ValueError(f"duplicate link id {link.link_id}")
            self._link_by_id[link.link_id] = link
            self._links_by_peer.setdefault(link.peer_asn, []).append(link)
        # link id -> its peer's link ids, nearest first; filled when asked
        self._nearest: Dict[int, Tuple[int, ...]] = {}
        self._region_by_name = {r.name: r for r in self.regions}
        self._prefix_by_id = {p.prefix_id: p for p in self.dest_prefixes}

    # -- lookups ----------------------------------------------------------

    def link(self, link_id: int) -> PeeringLink:
        return self._link_by_id[link_id]

    def has_link(self, link_id: int) -> bool:
        return link_id in self._link_by_id

    def links_of_peer(self, peer_asn: int) -> Tuple[PeeringLink, ...]:
        return tuple(self._links_by_peer.get(peer_asn, ()))

    def nearest_peer_links(self, link_id: int) -> Tuple[int, ...]:
        """Every link id of ``link_id``'s peer, itself included, sorted by
        ``(distance from its metro, link id)``.

        The geography never changes, so each order is sorted once, the
        first time it is asked, and kept: an idempotent fill whose one
        dict store is atomic, so racing readers get equal tuples.
        """
        order = self._nearest.get(link_id)
        if order is None:
            anchor, distance = self._link_by_id[link_id], self.metros.distance_km
            order = self._nearest[link_id] = tuple(l.link_id for l in sorted(
                self._links_by_peer[anchor.peer_asn],
                key=lambda l: (distance(anchor.metro, l.metro), l.link_id)))
        return order

    @property
    def peer_asns(self) -> Tuple[int, ...]:
        return tuple(sorted(self._links_by_peer))

    @property
    def link_ids(self) -> Tuple[int, ...]:
        return tuple(self._link_by_id)

    def region(self, name: str) -> Region:
        return self._region_by_name[name]

    def dest_prefix(self, prefix_id: int) -> DestPrefix:
        return self._prefix_by_id[prefix_id]

    def services(self) -> Tuple[str, ...]:
        return tuple(sorted({p.service for p in self.dest_prefixes}))

    def summary(self) -> Dict[str, int]:
        """Headline counts, useful in logs and docs."""
        return {
            "links": len(self.links),
            "peers": len(self._links_by_peer),
            "metros": len({l.metro for l in self.links}),
            "regions": len(self.regions),
            "dest_prefixes": len(self.dest_prefixes),
        }


@dataclass
class WANParams:
    """Knobs for generating the WAN's peering surface and destinations."""

    asn: int = 8075
    # fraction of world metros where the WAN has edge routers
    edge_metro_fraction: float = 0.85
    n_regions: int = 16
    services: Tuple[str, ...] = DEFAULT_SERVICES
    # how many (region, service) pairs get a destination prefix
    n_dest_prefixes: int = 96
    # probability of peering with each AS role
    peer_prob: Dict[str, float] = field(default_factory=lambda: {
        "tier1": 1.0, "transit": 0.75, "cdn": 1.0, "access": 0.3, "stub": 0.04,
    })
    # (min, max) peering metros per role
    peer_metros: Dict[str, Tuple[int, int]] = field(default_factory=lambda: {
        "tier1": (8, 14), "transit": (2, 6), "cdn": (6, 12),
        "access": (1, 2), "stub": (1, 1),
    })
    # (min, max) parallel sessions per (peer, metro)
    links_per_metro: Dict[str, Tuple[int, int]] = field(default_factory=lambda: {
        "tier1": (1, 3), "transit": (1, 2), "cdn": (1, 3),
        "access": (1, 1), "stub": (1, 1),
    })
    capacity_choices: Dict[str, Tuple[float, ...]] = field(default_factory=lambda: {
        "tier1": (100.0, 400.0), "transit": (40.0, 100.0, 400.0),
        "cdn": (100.0, 400.0), "access": (10.0, 20.0, 40.0), "stub": (10.0, 20.0),
    })


def generate_wan(
    graph: ASGraph,
    params: Optional[WANParams] = None,
    seed: int = 0,
) -> CloudWAN:
    """Generate the cloud WAN's peering surface over an AS graph.

    Peering is constrained to metros in the peer's footprint where the WAN
    has edge presence, so hot-potato geography is physically coherent.
    """
    params = params or WANParams()
    rng = random.Random(seed ^ 0x5A17)
    metros = graph.metros
    all_metros = list(metros.names)
    n_edge = max(4, int(len(all_metros) * params.edge_metro_fraction))
    edge_metros = sorted(rng.sample(all_metros, k=n_edge))
    edge_set = set(edge_metros)

    links: List[PeeringLink] = []
    link_id = 0
    router_session_count: Dict[str, int] = {}

    for node in sorted(graph.nodes(), key=lambda n: n.asn):
        role = node.role.value
        if rng.random() >= params.peer_prob.get(role, 0.0):
            continue
        candidate_metros = sorted(set(node.footprint) & edge_set)
        if not candidate_metros:
            continue
        lo, hi = params.peer_metros[role]
        n_metros = min(len(candidate_metros), rng.randint(lo, hi))
        chosen = rng.sample(candidate_metros, k=n_metros)
        for metro in sorted(chosen):
            llo, lhi = params.links_per_metro[role]
            n_links = rng.randint(llo, lhi)
            for _ in range(n_links):
                router_idx = rng.randint(1, 3)
                router = f"{metro}-er{router_idx}"
                router_session_count[router] = router_session_count.get(router, 0) + 1
                capacity = rng.choice(params.capacity_choices[role])
                kind = "ixp" if (role in ("access", "stub") and rng.random() < 0.2) else "direct"
                links.append(PeeringLink(
                    link_id=link_id, peer_asn=node.asn, metro=metro,
                    router=router, capacity_gbps=capacity, kind=kind,
                ))
                link_id += 1

    # cloud regions anchored at edge metros
    region_metros = rng.sample(edge_metros, k=min(params.n_regions, len(edge_metros)))
    regions = [Region(name=f"{m}-region", metro=m) for m in sorted(region_metros)]

    # destination prefixes: spread (region, service) combinations
    dest_prefixes: List[DestPrefix] = []
    for i in range(params.n_dest_prefixes):
        region = regions[i % len(regions)]
        service = params.services[rng.randrange(len(params.services))]
        cidr = f"100.{64 + i // 256}.{i % 256}.0/24"
        dest_prefixes.append(DestPrefix(i, cidr, region.name, service))

    return CloudWAN(params.asn, links, regions, dest_prefixes, metros)
