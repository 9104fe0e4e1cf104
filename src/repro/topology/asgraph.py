"""Synthetic AS-level Internet topology.

Generates an AS graph with Gao-Rexford business relationships, geographic
footprints, and the structural quirks the paper calls out as the reason
ingress prediction is hard (§2):

* a flattening Internet where most bytes originate at ASes 1-3 hops away
  (Figure 2),
* large direct peers that *spray* traffic over many peering links, partly
  because of isolated "pockets" of their network that can only reach the
  WAN over public transit (Figure 3),
* opaque per-AS policy biases that the predictor can never observe.

The generated graph is the ground-truth world; TIPSY only ever sees the
telemetry derived from it.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from .geography import MetroCatalog
from .relationships import Relationship


class ASRole(enum.Enum):
    """Coarse role of an AS in the synthetic Internet."""

    TIER1 = "tier1"      # global transit, full-mesh peering at the top
    TRANSIT = "transit"  # continental / national transit provider
    ACCESS = "access"    # regional access / eyeball ISP
    CDN = "cdn"          # large content network, possibly with pockets
    STUB = "stub"        # enterprise or small eyeball, no customers


@dataclass(frozen=True)
class Pocket:
    """A connectivity island within an AS (paper §2).

    Traffic originating in a pocket can only leave the AS through exits
    inside the pocket's metros, or through the pocket's own transit
    providers.  This models CDNs without a global backbone and large ASes
    whose routing policy avoids private long-haul links.
    """

    metros: FrozenSet[str]
    providers: Tuple[int, ...]


@dataclass
class ASNode:
    """An autonomous system in the synthetic topology.

    Attributes:
        asn: AS number.
        role: coarse role (tier-1, transit, access, CDN, stub).
        footprint: metros where the AS has network presence.
        pockets: connectivity islands; empty means a single global backbone
            spanning the whole footprint.
        policy_bias: opaque per-AS tie-break bias added to provider route
            ranking — stands in for the confidential routing policies that
            make prediction non-deterministic.
    """

    asn: int
    role: ASRole
    footprint: Tuple[str, ...]
    pockets: Tuple[Pocket, ...] = ()
    policy_bias: float = 0.0

    def pocket_for(self, metro: str) -> Optional[Pocket]:
        """The pocket containing ``metro``, or None if not pocketed there."""
        for pocket in self.pockets:
            if metro in pocket.metros:
                return pocket
        return None


class ASGraph:
    """An AS-level topology: nodes, relationship-annotated adjacencies.

    Adjacencies are stored from each endpoint's point of view:
    ``self.relationship(a, b)`` is what ``b`` is *to* ``a``.
    """

    def __init__(self, metros: MetroCatalog):
        self.metros = metros
        self._nodes: Dict[int, ASNode] = {}
        self._adj: Dict[int, Dict[int, Relationship]] = {}
        self._version = 0
        self._dense: Optional["DenseTopology"] = None
        self._dense_version = -1

    # -- construction -----------------------------------------------------

    def add_as(self, node: ASNode) -> None:
        if node.asn in self._nodes:
            raise ValueError(f"AS{node.asn} already present")
        for metro in node.footprint:
            if metro not in self.metros:
                raise ValueError(f"AS{node.asn} footprint metro {metro!r} unknown")
        self._nodes[node.asn] = node
        self._adj[node.asn] = {}
        self._version += 1

    def add_link(self, a: int, b: int, rel_of_b: Relationship) -> None:
        """Add an adjacency; ``rel_of_b`` is what ``b`` is to ``a``."""
        if a == b:
            raise ValueError("self-loops are not allowed")
        for asn in (a, b):
            if asn not in self._nodes:
                raise KeyError(f"AS{asn} not in graph")
        if b in self._adj[a]:
            raise ValueError(f"link AS{a}-AS{b} already present")
        self._adj[a][b] = rel_of_b
        self._adj[b][a] = rel_of_b.invert()
        self._version += 1

    # -- queries ----------------------------------------------------------

    def __contains__(self, asn: int) -> bool:
        return asn in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def asns(self) -> Tuple[int, ...]:
        return tuple(self._nodes)

    def node(self, asn: int) -> ASNode:
        return self._nodes[asn]

    def nodes(self) -> Iterable[ASNode]:
        return self._nodes.values()

    def neighbors(self, asn: int) -> Tuple[int, ...]:
        return tuple(self._adj[asn])

    def relationship(self, a: int, b: int) -> Relationship:
        """What ``b`` is to ``a``. Raises ``KeyError`` if not adjacent."""
        return self._adj[a][b]

    def providers(self, asn: int) -> Tuple[int, ...]:
        return tuple(n for n, rel in self._adj[asn].items() if rel is Relationship.PROVIDER)

    def customers(self, asn: int) -> Tuple[int, ...]:
        return tuple(n for n, rel in self._adj[asn].items() if rel is Relationship.CUSTOMER)

    def peers(self, asn: int) -> Tuple[int, ...]:
        return tuple(n for n, rel in self._adj[asn].items() if rel is Relationship.PEER)

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every mutation (cache layers)."""
        return self._version

    def dense(self) -> "DenseTopology":
        """Columnar CSR view of the graph (cached until mutated).

        The view assigns every AS a dense row index in insertion order;
        routing tables and other columnar consumers share it so their
        arrays stay aligned across derived states.
        """
        if self._dense is None or self._dense_version != self._version:
            self._dense = DenseTopology(self)
            self._dense_version = self._version
        return self._dense

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        for asn, node in self._nodes.items():
            if not node.footprint:
                raise ValueError(f"AS{asn} has empty footprint")
            for pocket in node.pockets:
                if not pocket.metros <= set(node.footprint):
                    raise ValueError(f"AS{asn} pocket metros outside footprint")
                for provider in pocket.providers:
                    if provider not in self._nodes:
                        raise ValueError(f"AS{asn} pocket provider AS{provider} missing")
        for a, nbrs in self._adj.items():
            for b, rel in nbrs.items():
                if self._adj[b][a] is not rel.invert():
                    raise ValueError(f"asymmetric relationship on AS{a}-AS{b}")


class DenseTopology:
    """Immutable columnar (CSR) view of an :class:`ASGraph`.

    Rows are ASes in graph insertion order; ``index`` maps ASN -> row.
    Provider and customer adjacencies are packed CSR-style — for row
    ``r``, ``prov_indices[prov_indptr[r]:prov_indptr[r + 1]]`` are the
    rows of ``r``'s providers — with explicit dtype pins (``int32`` row
    ids, ``int64`` ASNs/offsets) so tables derived from the view are
    platform-stable (RA703).

    Built by :meth:`ASGraph.dense`; treat instances as frozen.
    """

    def __init__(self, graph: ASGraph):
        asns = tuple(graph.asns)
        self.n = len(asns)
        self.asns = np.array(asns, dtype=np.int64)
        self.index: Dict[int, int] = {asn: row for row, asn in enumerate(asns)}
        self.prov_indptr, self.prov_indices = self._pack(graph, asns, True)
        self.cust_indptr, self.cust_indices = self._pack(graph, asns, False)

    def _pack(self, graph: ASGraph, asns: Tuple[int, ...],
              providers: bool) -> Tuple[np.ndarray, np.ndarray]:
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        rows: List[np.ndarray] = []
        for row, asn in enumerate(asns):
            nbrs = graph.providers(asn) if providers else graph.customers(asn)
            packed = np.array([self.index[n] for n in nbrs], dtype=np.int32)
            indptr[row + 1] = indptr[row] + len(packed)
            rows.append(packed)
        if rows:
            indices = np.concatenate(rows).astype(np.int32, copy=False)
        else:
            indices = np.zeros(0, dtype=np.int32)
        return indptr, indices

    def providers_of(self, row: int) -> np.ndarray:
        """Provider rows of ``row`` (int32 slice of the CSR arrays)."""
        return self.prov_indices[self.prov_indptr[row]:self.prov_indptr[row + 1]]

    def customers_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Sorted unique customer rows of every row in ``rows``."""
        counts = self.cust_indptr[rows + 1] - self.cust_indptr[rows]
        total = int(counts.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int32)
        starts = np.repeat(self.cust_indptr[rows], counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts)
        return np.unique(self.cust_indices[starts + within])


@dataclass
class TopologyParams:
    """Knobs controlling the synthetic AS topology size and shape.

    Defaults produce a laptop-scale Internet preserving the statistical
    structure of the paper's measurements (see DESIGN.md §3 scale note).
    """

    n_tier1: int = 6
    n_transit: int = 36
    n_access: int = 120
    n_cdn: int = 10
    n_stub: int = 420

    # fraction of CDNs' footprints organised into isolated pockets
    cdn_pocket_fraction: float = 0.6
    # mean number of transit providers per access ISP / stub
    access_providers: int = 2
    stub_providers: int = 2
    # probability that two same-continent transit ASes peer directly
    transit_peering_prob: float = 0.25
    # magnitude of per-AS opaque policy bias (route-rank units)
    policy_bias_scale: float = 0.35

    first_asn: int = 1000


def generate_as_graph(
    metros: MetroCatalog,
    params: Optional[TopologyParams] = None,
    seed: int = 0,
) -> ASGraph:
    """Generate a synthetic AS-level Internet.

    The construction is deterministic for a given ``seed``.

    Args:
        metros: geographic frame (shared with the WAN and Geo-IP DB).
        params: size/shape knobs; defaults are laptop scale.
        seed: RNG seed.

    Returns:
        A validated :class:`ASGraph`.
    """
    params = params or TopologyParams()
    rng = random.Random(seed)
    graph = ASGraph(metros)
    all_metros = list(metros.names)
    next_asn = params.first_asn

    def take_asn() -> int:
        nonlocal next_asn
        asn = next_asn
        next_asn += 1
        return asn

    def bias() -> float:
        return rng.uniform(0.0, params.policy_bias_scale)

    # --- tier-1s: global footprint, full-mesh peering --------------------
    tier1s: List[int] = []
    for _ in range(params.n_tier1):
        asn = take_asn()
        footprint = tuple(sorted(rng.sample(all_metros, k=max(10, int(len(all_metros) * 0.7)))))
        graph.add_as(ASNode(asn, ASRole.TIER1, footprint, policy_bias=bias()))
        tier1s.append(asn)
    for i, a in enumerate(tier1s):
        for b in tier1s[i + 1:]:
            graph.add_link(a, b, Relationship.PEER)

    # --- transit: continental footprint, tier-1 providers ----------------
    transits: List[int] = []
    transit_continent: Dict[int, str] = {}
    continents = sorted({m.continent for m in metros})
    for i in range(params.n_transit):
        asn = take_asn()
        continent = continents[i % len(continents)]
        cont_metros = [m.name for m in metros.in_continent(continent)]
        k = min(len(cont_metros), max(2, rng.randint(2, max(2, len(cont_metros)))))
        footprint = tuple(sorted(rng.sample(cont_metros, k=k)))
        graph.add_as(ASNode(asn, ASRole.TRANSIT, footprint, policy_bias=bias()))
        for provider in rng.sample(tier1s, k=min(len(tier1s), rng.randint(2, 3))):
            graph.add_link(asn, provider, Relationship.PROVIDER)
        transits.append(asn)
        transit_continent[asn] = continent
    for i, a in enumerate(transits):
        for b in transits[i + 1:]:
            if transit_continent[a] == transit_continent[b] and rng.random() < params.transit_peering_prob:
                graph.add_link(a, b, Relationship.PEER)

    # --- access ISPs: country/regional, transit providers ----------------
    accesses: List[int] = []
    for _ in range(params.n_access):
        asn = take_asn()
        home = rng.choice(all_metros)
        country = metros.get(home).country
        country_metros = [m.name for m in metros.in_country(country)]
        footprint = tuple(sorted(set(country_metros[: rng.randint(1, len(country_metros))]) | {home}))
        continent = metros.get(home).continent
        local_transits = [t for t in transits if transit_continent[t] == continent] or transits
        n_prov = min(len(local_transits), max(1, round(rng.gauss(params.access_providers, 0.7))))
        graph.add_as(ASNode(asn, ASRole.ACCESS, footprint, policy_bias=bias()))
        for provider in rng.sample(local_transits, k=n_prov):
            graph.add_link(asn, provider, Relationship.PROVIDER)
        accesses.append(asn)

    # --- CDNs: wide footprint, pockets reaching out via local transit ----
    for _ in range(params.n_cdn):
        asn = take_asn()
        k = max(8, int(len(all_metros) * rng.uniform(0.35, 0.8)))
        footprint = sorted(rng.sample(all_metros, k=min(k, len(all_metros))))
        pockets: List[Pocket] = []
        pocketed: List[str] = []
        if rng.random() < 0.9:
            n_pocket_metros = int(len(footprint) * params.cdn_pocket_fraction)
            pocketed = rng.sample(footprint, k=n_pocket_metros)
            # group pocketed metros by continent into islands
            by_continent: Dict[str, List[str]] = {}
            for m in pocketed:
                by_continent.setdefault(metros.get(m).continent, []).append(m)
            for cont, ms in sorted(by_continent.items()):
                local_transits = [t for t in transits if transit_continent[t] == cont] or transits
                providers = tuple(rng.sample(local_transits, k=min(2, len(local_transits))))
                pockets.append(Pocket(frozenset(ms), providers))
        node = ASNode(asn, ASRole.CDN, tuple(footprint), tuple(pockets), policy_bias=bias())
        graph.add_as(node)
        # CDNs also buy transit for their backbone (rarely used, but present)
        for provider in rng.sample(tier1s, k=2):
            graph.add_link(asn, provider, Relationship.PROVIDER)
        # pocket providers must be adjacent so routes can flow
        for pocket in pockets:
            for provider in pocket.providers:
                if provider not in graph.neighbors(asn):
                    graph.add_link(asn, provider, Relationship.PROVIDER)

    # --- stubs: enterprises and small eyeballs ---------------------------
    for _ in range(params.n_stub):
        asn = take_asn()
        home = rng.choice(all_metros)
        footprint = (home,)
        graph.add_as(ASNode(asn, ASRole.STUB, footprint, policy_bias=bias()))
        continent = metros.get(home).continent
        # providers drawn from access ISPs covering the home metro when
        # possible, otherwise any same-continent transit
        local_access = [a for a in accesses if home in graph.node(a).footprint]
        local_transits = [t for t in transits if transit_continent[t] == continent] or transits
        pool = local_access + local_transits
        n_prov = min(len(pool), max(1, round(rng.gauss(params.stub_providers, 0.6))))
        for provider in rng.sample(pool, k=n_prov):
            graph.add_link(asn, provider, Relationship.PROVIDER)

    graph.validate()
    return graph
