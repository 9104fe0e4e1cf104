"""Source /24 prefix universe.

TIPSY's highest-resolution source feature is the /24 prefix of the source
IP (paper §3.2: "the widely accepted limit on routable prefix length").
This module assigns a universe of /24 prefixes to the ASes of the synthetic
Internet, each pinned to one metro of its AS's footprint — matching the
paper's observation that there is exactly one source location per /24 in
the Azure dataset (which is why feature set APL ≡ AP).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..topology.asgraph import ASGraph, ASRole


@dataclass(frozen=True)
class SourcePrefix:
    """A /24 source prefix: identity, origin AS and geo-location."""

    prefix_id: int
    asn: int
    metro: str

    @property
    def cidr(self) -> str:
        """Render the prefix id as a synthetic dotted /24."""
        pid = self.prefix_id & 0xFFFFFF
        return f"{(pid >> 16) & 0xFF}.{(pid >> 8) & 0xFF}.{pid & 0xFF}.0/24"


#: default (min, max) /24 prefixes originated per AS, by role
DEFAULT_PREFIX_COUNTS: Dict[ASRole, Tuple[int, int]] = {
    ASRole.TIER1: (80, 220),
    ASRole.TRANSIT: (50, 150),
    ASRole.ACCESS: (40, 120),
    ASRole.CDN: (120, 360),
    ASRole.STUB: (2, 12),
}


class PrefixUniverse:
    """All source /24 prefixes of the synthetic Internet, indexed.

    Within each AS, prefixes concentrate geographically: metros are
    weighted by a per-AS Zipf over a shuffled footprint, so an AS's
    address space clusters in a few "home" metros with a tail elsewhere —
    as real allocation does.  This is what keeps coarse-grained (A-level)
    flow aggregates geographically coherent.
    """

    def __init__(
        self,
        graph: ASGraph,
        counts: Optional[Dict[ASRole, Tuple[int, int]]] = None,
        seed: int = 0,
        metro_zipf_s: float = 1.1,
    ):
        counts = counts or DEFAULT_PREFIX_COUNTS
        rng = random.Random(seed ^ 0x9E3F)
        self.graph = graph
        self._prefixes: List[SourcePrefix] = []
        self._by_as: Dict[int, Tuple[SourcePrefix, ...]] = {}
        prefix_id = 0
        for node in sorted(graph.nodes(), key=lambda n: n.asn):
            lo, hi = counts[node.role]
            n = rng.randint(lo, hi)
            metros = list(node.footprint)
            rng.shuffle(metros)
            weights = [1.0 / (i + 1) ** metro_zipf_s for i in range(len(metros))]
            chosen = rng.choices(metros, weights=weights, k=n)
            per_as: List[SourcePrefix] = []
            for metro in chosen:
                prefix = SourcePrefix(prefix_id, node.asn, metro)
                per_as.append(prefix)
                self._prefixes.append(prefix)
                prefix_id += 1
            self._by_as[node.asn] = tuple(per_as)

    def __len__(self) -> int:
        return len(self._prefixes)

    def __iter__(self) -> Iterator[SourcePrefix]:
        return iter(self._prefixes)

    def prefix(self, prefix_id: int) -> SourcePrefix:
        return self._prefixes[prefix_id]

    def of_as(self, asn: int) -> Tuple[SourcePrefix, ...]:
        return self._by_as.get(asn, ())

    def asns(self) -> Tuple[int, ...]:
        return tuple(self._by_as)
