"""BMP (BGP Monitoring Protocol) feed.

BMP exports every route a WAN edge router receives from its neighbors
(paper §4.1).  TIPSY explicitly does **not** train on BMP — the feed is
used for debugging and for the topology analyses behind Figures 2 and 3.
We reproduce that role: the feed synthesises the routes each peer would
advertise for the source prefixes in its customer cone, and offers an
AS-distance inference over the observed AS paths (the "shortest
valley-free route in the AS-level graph inferred from our BMP data" used
in Figure 2).

:class:`Route`, the route a message carries, lives here because the
feed is its one user; the ground-truth routing in :mod:`repro.bgp` is
columnar and has no per-route objects.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..topology.asgraph import ASGraph
from ..topology.wan import CloudWAN
from ..traffic.prefixes import PrefixUniverse


@dataclass(frozen=True)
class Route:
    """A BGP route as monitored: prefix, AS path and next hop.

    Attributes:
        prefix: destination prefix in CIDR notation.
        as_path: AS path, nearest AS first; the origin AS is last.
        next_hop: opaque next-hop identifier (router name or peer name).
    """

    prefix: str
    as_path: Tuple[int, ...]
    next_hop: str


@dataclass(frozen=True)
class BmpMessage:
    """A route-monitoring message: which session saw which route."""

    link_id: int
    router: str
    peer_asn: int
    route: Route


class BmpFeed:
    """Synthesised BMP route-monitoring data for the source prefix universe."""

    def __init__(self, graph: ASGraph, wan: CloudWAN, seed: int = 0):
        self.graph = graph
        self.wan = wan
        self.seed = seed
        self._up_chain_cache: Dict[int, Optional[Tuple[int, ...]]] = {}
        self._direct_peers = frozenset(a for a in wan.peer_asns if a in graph)

    def advertisement_path(self, origin_asn: int) -> Optional[Tuple[int, ...]]:
        """AS path, nearest-peer first, by which the WAN hears ``origin_asn``.

        The origin's announcement climbs its provider chain until it
        reaches an AS that directly peers with the WAN (valley-free: only
        customer-learned routes are exported to the WAN peering).  Returns
        None if the origin is unreachable.
        """
        if origin_asn in self._up_chain_cache:
            return self._up_chain_cache[origin_asn]
        path = self._shortest_up_chain(origin_asn)
        self._up_chain_cache[origin_asn] = path
        return path

    def _shortest_up_chain(self, origin_asn: int) -> Optional[Tuple[int, ...]]:
        if origin_asn not in self.graph:
            return None
        if origin_asn in self._direct_peers:
            return (origin_asn,)
        # BFS up provider edges from the origin until hitting a direct peer
        parent: Dict[int, int] = {origin_asn: origin_asn}
        queue = deque([origin_asn])
        found: Optional[int] = None
        while queue and found is None:
            asn = queue.popleft()
            for provider in sorted(self.graph.providers(asn)):
                if provider in parent:
                    continue
                parent[provider] = asn
                if provider in self._direct_peers:
                    found = provider
                    break
                queue.append(provider)
        if found is None:
            return None
        chain = [found]
        asn = found
        while parent[asn] != asn:
            asn = parent[asn]
            chain.append(asn)
        return tuple(chain)  # nearest peer first, origin last

    def messages_for(self, universe: PrefixUniverse) -> List[BmpMessage]:
        """BMP messages for every source prefix, as received at our routers.

        Each prefix is announced to the WAN on the links of the direct
        peer that tops its origin's provider chain.
        """
        messages: List[BmpMessage] = []
        for prefix in universe:
            path = self.advertisement_path(prefix.asn)
            if path is None:
                continue
            peer = path[0]
            links = self.wan.links_of_peer(peer)
            if not links:
                continue
            route = Route(prefix=prefix.cidr, as_path=path, next_hop=f"AS{peer}")
            for link in links:
                messages.append(BmpMessage(link.link_id, link.router,
                                           peer, route))
        return messages

    def as_distance(self, origin_asn: int) -> Optional[int]:
        """Shortest valley-free AS distance inferred from BMP paths."""
        path = self.advertisement_path(origin_asn)
        return len(path) if path else None
