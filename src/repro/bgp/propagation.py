"""AS-level route propagation for anycast prefixes.

Computes, per availability state, each AS's route to the cloud WAN under
Gao-Rexford (valley-free) policy.  Because the WAN buys transit from no
one, routes to it propagate in exactly one pattern:

* ASes that directly peer with the WAN (and still have an available link
  for the prefix) use their own links — a peer/customer-learned route with
  the highest preference ("direct" below);
* such routes are exported **only to customers**, so every other AS
  reaches the WAN through a chain of its *providers* that tops out at some
  direct neighbor.

The per-AS result is a :class:`RouteInfo`: whether the AS is direct, its
AS-hop distance, and its ranked provider next-hops.  Ranking mixes the
true distance with the AS's opaque ``policy_bias``, which stands in for
the confidential local policies the paper highlights (§2, challenge 1/3).

Two scaling decisions let this run at paper-scale graphs (ROADMAP item 2):

* **Columnar state.**  A :class:`RoutingTable` is three read-only numpy
  columns over the graph's dense row index
  (``topology.asgraph.DenseTopology``): ``dist`` (``int32``, ``-1``
  unreachable), ``direct`` (``bool_``) and ``nexthops``, the ranked
  next-hops as an ``(n, MAX_NEXTHOPS)`` ``int64`` matrix padded with
  ``-1``, so comparing two tables is a column comparison.
  :meth:`RoutingTable.get` builds a :class:`RouteInfo` from one row.
* **Dirty-set recomputation.**  :func:`update_routing_table` derives the
  table for a changed seeded-neighbor set from a previously computed
  one: BFS from the changed seeds through the provider→customer cone
  bounds the rows whose distance *could* move, a vectorised
  Bellman-Ford pass over that cone settles their new distances against
  the frozen outside boundary, and only rows whose distance (or whose
  providers' distance) actually changed are re-decided, in a copy of
  the base table's next-hop matrix.  The result is bit-identical to
  :func:`compute_routing_table` from scratch (enforced by
  ``tests/bgp/test_incremental_equivalence.py``).
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np

from ..topology.asgraph import ASGraph, DenseTopology
from ..util.hashing import unit

#: rank slack within which multiple providers count as spray candidates
SPRAY_TOLERANCE = 0.45
#: maximum number of ranked next-hops kept per AS
MAX_NEXTHOPS = 3

#: ``dist`` column value marking an unreachable AS
UNREACHABLE = -1

#: label standing in for "no route yet" during distance settling; any
#: value above every possible AS-hop distance works (graphs are far
#: smaller than 2**31)
_FAR = np.int64(2**31 - 2)


class RouteInfo(NamedTuple):
    """One AS's route to the WAN under a given availability state.

    Attributes:
        direct: the AS has at least one available peering link of its own.
        dist: AS-hop distance to the WAN (1 if direct).
        nexthops: provider ASNs ranked by (distance + policy bias); used
            when the AS is not direct (or as fallback in what-if analyses).
    """

    direct: bool
    dist: int
    nexthops: Tuple[int, ...]


class RoutingTable:
    """Columnar per-AS routing state for one seeded-neighbor set.

    Three read-only columns over the graph's row index: ``dist``
    (``int32``, ``UNREACHABLE`` = no route), ``direct`` (``bool_``) and
    ``nexthops``, the ranked next-hops as an ``(n, MAX_NEXTHOPS)``
    ``int64`` matrix padded with ``-1``.  The dict-style accessors
    (:meth:`get`, ``in``, :meth:`distance`) read single rows.
    """

    __slots__ = ("seeded", "_topo", "dist", "direct", "nexthops")

    def __init__(self, topo: DenseTopology, dist: np.ndarray,
                 direct: np.ndarray, nexthops: np.ndarray,
                 seeded: FrozenSet[int]):
        for column in (dist, direct, nexthops):
            column.flags.writeable = False
        self.seeded = seeded
        self._topo = topo
        self.dist = dist
        self.direct = direct
        self.nexthops = nexthops

    # -- dict-style accessors ----------------------------------------------

    def get(self, asn: int) -> Optional[RouteInfo]:
        row = self._topo.index.get(asn)
        if row is None or self.dist[row] < 0:
            return None
        hops = self.nexthops[row]
        return RouteInfo(bool(self.direct[row]), int(self.dist[row]),
                         tuple(hops[hops >= 0].tolist()))

    def __contains__(self, asn: int) -> bool:
        return self.distance(asn) is not None

    def __len__(self) -> int:
        return int(np.count_nonzero(self.dist >= 0))

    def reachable_asns(self) -> Tuple[int, ...]:
        """ASNs with a route, in graph row order."""
        return tuple(int(a) for a in self._topo.asns[self.dist >= 0])

    def distance(self, asn: int) -> Optional[int]:
        row = self._topo.index.get(asn)
        if row is None or self.dist[row] < 0:
            return None
        return int(self.dist[row])

    # -- columnar comparison (probe diffs, equivalence tests) --------------

    @property
    def topology(self) -> DenseTopology:
        return self._topo

    def changed_asns(self, other: "RoutingTable") -> FrozenSet[int]:
        """ASNs whose :class:`RouteInfo` differs between two tables over
        the same graph (one column comparison, no rows materialised)."""
        if other is self:
            return frozenset()
        differ = (self.dist != other.dist) | (self.direct != other.direct)
        differ |= (self.nexthops != other.nexthops).any(axis=1)
        return frozenset(self._topo.asns[differ].tolist())

    def columns_equal(self, other: "RoutingTable") -> bool:
        """Bit-identical column comparison (the equivalence-test check)."""
        return (
            np.array_equal(self.dist, other.dist)
            and np.array_equal(self.direct, other.direct)
            and np.array_equal(self.nexthops, other.nexthops)
        )


def _decide_nexthops(asn: int, dist: np.ndarray, prov_rows: np.ndarray,
                     asns: np.ndarray,
                     bias: Callable[[int, int], float]) -> Tuple[int, ...]:
    """Ranked next-hops for one AS given provider distances.

    Pure per-row function of (provider distances, bias): the full and
    incremental paths both call it, which is what makes dirty-set
    recomputation bit-identical to a rebuild.
    """
    ranked: List[Tuple[float, int]] = sorted(
        (int(dist[p]) + 1 + bias(asn, int(asns[p])), int(asns[p]))
        for p in prov_rows if dist[p] >= 0
    )
    if not ranked:
        return ()
    best_rank = ranked[0][0]
    return tuple(
        p for rank, p in ranked[:MAX_NEXTHOPS]
        if rank <= best_rank + SPRAY_TOLERANCE
    )


def _bfs_distances(topo: DenseTopology, seed_rows: np.ndarray) -> np.ndarray:
    """Shortest AS-hop distances (``int32``, ``-1`` unreachable) from the
    seed rows down the provider→customer edges, level-vectorised."""
    dist = np.full(topo.n, UNREACHABLE, dtype=np.int32)
    if seed_rows.size == 0:
        return dist
    dist[seed_rows] = 1
    frontier = seed_rows
    d = np.int32(1)
    while frontier.size:
        nxt = topo.customers_of_rows(frontier)
        nxt = nxt[dist[nxt] < 0]
        d = np.int32(d + 1)
        dist[nxt] = d
        frontier = nxt
    return dist


def _decide_rows(topo: DenseTopology, dist: np.ndarray, rows: np.ndarray,
                 bias: Callable[[int, int], float],
                 nexthops: np.ndarray) -> None:
    """Write the ranked next-hops of each of ``rows`` that has a route
    into ``nexthops``, whose rows arrive ``-1`` padded."""
    for row in rows[dist[rows] >= 0].tolist():
        hops = _decide_nexthops(int(topo.asns[row]), dist,
                                topo.providers_of(row), topo.asns, bias)
        nexthops[row, :len(hops)] = hops


def compute_routing_table(
    graph: ASGraph,
    seeded: FrozenSet[int],
    bias: Callable[[int, int], float],
) -> RoutingTable:
    """Compute every AS's route to the WAN for one seeded-neighbor set.

    Args:
        graph: the AS topology.
        seeded: ASNs that currently have >= 1 available peering link with
            the WAN for the prefix under consideration.
        bias: ``bias(asn, provider) -> float`` opaque policy bias added to
            next-hop ranking (stable per scenario).

    Returns:
        A :class:`RoutingTable`.  ASes with no route at all report as
        absent through the dict-style accessors.
    """
    topo = graph.dense()
    seed_rows = np.array(
        sorted(topo.index[a] for a in seeded if a in topo.index),
        dtype=np.int32)
    dist = _bfs_distances(topo, seed_rows)

    direct = np.zeros(topo.n, dtype=np.bool_)
    direct[seed_rows] = True

    nexthops = np.full((topo.n, MAX_NEXTHOPS), -1, dtype=np.int64)
    _decide_rows(topo, dist, np.arange(topo.n, dtype=np.int64), bias,
                 nexthops)
    return RoutingTable(topo, dist, direct, nexthops, seeded)


def _dirty_cone(topo: DenseTopology, changed_rows: np.ndarray) -> np.ndarray:
    """Rows whose distance could depend on the changed seeds: the union
    of the changed seeds' provider→customer cones (sorted, unique)."""
    mask = np.zeros(topo.n, dtype=np.bool_)
    mask[changed_rows] = True
    frontier = changed_rows
    while frontier.size:
        nxt = topo.customers_of_rows(frontier)
        nxt = nxt[~mask[nxt]]
        mask[nxt] = True
        frontier = nxt
    return np.flatnonzero(mask).astype(np.int32)


def _settle_cone(topo: DenseTopology, old_dist: np.ndarray,
                 cone: np.ndarray, seeded_mask: np.ndarray) -> np.ndarray:
    """New distances with only ``cone`` rows free to move.

    Bellman-Ford over the cone: labels start at 1 for seeds and "far"
    otherwise, and each round takes the min over provider labels + 1 —
    providers outside the cone contribute their (frozen) old distance.
    Unit edge weights bound the rounds by the routing depth, and every
    round is a single gather + segmented-min over the cone's provider
    CSR slice.
    """
    labels = np.where(old_dist >= 0, old_dist.astype(np.int64), _FAR)
    labels[cone] = _FAR
    init = np.full(cone.shape, _FAR, dtype=np.int64)
    init[seeded_mask[cone]] = 1
    labels[cone] = init

    counts = topo.prov_indptr[cone + 1] - topo.prov_indptr[cone]
    has_prov = counts > 0
    rows_p = cone[has_prov]
    counts_p = counts[has_prov]
    if rows_p.size:
        total = int(counts_p.sum())
        starts = np.repeat(topo.prov_indptr[rows_p], counts_p)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts_p) - counts_p, counts_p)
        gather = topo.prov_indices[starts + within]
        seg_starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts_p)[:-1]))
        init_p = init[has_prov]
        while True:
            via = np.minimum.reduceat(labels[gather], seg_starts) + 1
            new = np.minimum(init_p, via)
            if np.array_equal(new, labels[rows_p]):
                break
            labels[rows_p] = new
    new_dist = old_dist.copy()
    new_dist[cone] = np.where(
        labels[cone] >= _FAR, UNREACHABLE, labels[cone]).astype(np.int32)
    return new_dist


def update_routing_table(
    graph: ASGraph,
    table: RoutingTable,
    seeded: FrozenSet[int],
    bias: Callable[[int, int], float],
) -> RoutingTable:
    """Derive the table for ``seeded`` from a previously computed one.

    Identifies the dirty set — rows whose distance or ranked next-hops
    could depend on the seeded-set delta — and re-decides just those
    rows in a copy of ``table``'s next-hop matrix.  Bit-identical to
    :func:`compute_routing_table` ``(graph, seeded, bias)``; falls back
    to it outright when the graph mutated since ``table`` was built.
    """
    topo = graph.dense()
    if table.topology is not topo:
        return compute_routing_table(graph, seeded, bias)
    if seeded == table.seeded:
        return table

    old_dist = table.dist
    added_rows = np.array(
        sorted(topo.index[a] for a in seeded - table.seeded
               if a in topo.index), dtype=np.int32)
    removed_rows = np.array(
        sorted(topo.index[a] for a in table.seeded - seeded
               if a in topo.index), dtype=np.int32)
    changed_seed_rows = np.concatenate((added_rows, removed_rows))
    if changed_seed_rows.size == 0:
        # the sets differ only in ASNs outside the graph: same columns
        return RoutingTable(topo, old_dist, table.direct, table.nexthops,
                            seeded)

    # the direct column is the in-graph seeded set as a row mask
    new_direct = table.direct.copy()
    new_direct[removed_rows] = False
    new_direct[added_rows] = True

    # 1. dirty cone + settle distances against the frozen boundary
    cone = _dirty_cone(topo, changed_seed_rows)
    new_dist = _settle_cone(topo, old_dist, cone, new_direct)

    # 2. rows to re-decide: changed distance, changed direct flag, or a
    # customer of a changed-distance row (their provider ranking moved)
    changed_dist = np.flatnonzero(new_dist != old_dist).astype(np.int32)
    dirty = np.zeros(topo.n, dtype=np.bool_)
    dirty[changed_dist] = True
    dirty[changed_seed_rows] = True
    dirty[topo.customers_of_rows(changed_dist)] = True
    dirty_rows = np.flatnonzero(dirty)

    # 3. copy the matrix, reset and re-decide just the dirty rows
    nexthops = table.nexthops.copy()
    nexthops[dirty_rows] = -1
    _decide_rows(topo, new_dist, dirty_rows, bias, nexthops)
    return RoutingTable(topo, new_dist, new_direct, nexthops, seeded)


def default_bias(graph: ASGraph, seed: int) -> Callable[[int, int], float]:
    """Policy-bias function derived from each AS's ``policy_bias`` field.

    The bias is a stable pseudo-random value in ``[0, node.policy_bias]``
    per (AS, provider) pair — different ASes weight the 'same' choice
    differently, and TIPSY can never observe why.
    """
    nodes = {node.asn: node.policy_bias for node in graph.nodes()}

    def bias(asn: int, provider: int) -> float:
        scale = nodes.get(asn, 0.0)
        if scale <= 0.0:
            return 0.0
        return scale * unit(asn, provider, seed=seed)

    return bias
