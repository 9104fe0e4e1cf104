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

A table is computed, never repaired: every seeded-neighbor set is one
from-scratch build, all of it numpy (ROADMAP item 2).

* **Columnar state.**  A :class:`RoutingTable` is three read-only numpy
  columns over the graph's dense row index
  (``topology.asgraph.DenseTopology``): ``dist`` (``int32``, ``-1``
  unreachable), ``direct`` (``bool_``) and ``nexthops``, the ranked
  next-hops as an ``(n, MAX_NEXTHOPS)`` ``int64`` matrix padded with
  ``-1``, so comparing two tables is a column comparison.
  :meth:`RoutingTable.get` builds a :class:`RouteInfo` from one row.
* **One build.**  :func:`compute_routing_table` finds distances by a
  level-vectorised BFS down the provider→customer edges, then ranks
  every provider edge whose provider has a route in one ``np.lexsort``
  by (row, ``dist[provider] + 1 + bias``, provider ASN).  The bias is a
  column over the provider edges (:func:`default_bias`), built once per
  simulator.  The per-row decide this replaced is the test oracle
  (``tests/bgp/propagation_oracle.py``, checked by
  ``tests/properties/test_prop_routing_table.py``).
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Optional, Tuple

import numpy as np

from ..topology.asgraph import ASGraph, DenseTopology
from ..util.hashing import unit_columns

#: rank slack within which multiple providers count as spray candidates
SPRAY_TOLERANCE = 0.45
#: maximum number of ranked next-hops kept per AS
MAX_NEXTHOPS = 3

#: ``dist`` column value marking an unreachable AS
UNREACHABLE = -1


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


def compute_routing_table(
    graph: ASGraph,
    seeded: FrozenSet[int],
    bias: np.ndarray,
) -> RoutingTable:
    """Compute every AS's route to the WAN for one seeded-neighbor set.

    Args:
        graph: the AS topology.
        seeded: ASNs that currently have >= 1 available peering link with
            the WAN for the prefix under consideration.
        bias: the opaque policy bias added to next-hop ranking, one
            ``float64`` per provider edge, aligned with
            ``graph.dense().prov_indices`` (:func:`default_bias`).

    Returns:
        A :class:`RoutingTable`.  ASes with no route at all report as
        absent through the dict-style accessors.

    Raises:
        ValueError: ``bias`` does not hold one value per provider edge.
    """
    topo = graph.dense()
    if bias.shape != topo.prov_indices.shape:
        raise ValueError(f"bias holds {bias.size} values for "
                         f"{topo.prov_indices.size} provider edges")
    seed_rows = np.array(
        sorted(topo.index[a] for a in seeded if a in topo.index),
        dtype=np.int32)
    dist = _bfs_distances(topo, seed_rows)

    direct = np.zeros(topo.n, dtype=np.bool_)
    direct[seed_rows] = True

    # rank every provider edge whose provider has a route, then take each
    # row's first MAX_NEXTHOPS within SPRAY_TOLERANCE of its best
    rows = np.repeat(np.arange(topo.n, dtype=np.int64),
                     np.diff(topo.prov_indptr))
    live = np.flatnonzero(dist[topo.prov_indices] >= 0)
    providers = topo.prov_indices[live]
    rows, hops = rows[live], topo.asns[providers]
    rank = (dist[providers] + 1).astype(np.float64) + bias[live]
    order = np.lexsort((hops, rank, rows))
    rows, hops, rank = rows[order], hops[order], rank[order]
    first = np.searchsorted(rows, rows)
    position = np.arange(len(rows), dtype=np.int64) - first
    keep = (position < MAX_NEXTHOPS) & (
        rank <= rank[first] + SPRAY_TOLERANCE)
    nexthops = np.full((topo.n, MAX_NEXTHOPS), -1, dtype=np.int64)
    nexthops[rows[keep], position[keep]] = hops[keep]
    return RoutingTable(topo, dist, direct, nexthops, seeded)


def default_bias(graph: ASGraph, seed: int) -> np.ndarray:
    """The policy bias of every provider edge, from each AS's
    ``policy_bias`` field: a ``float64`` column aligned with
    ``graph.dense().prov_indices``.

    The bias is a stable pseudo-random value in ``[0, node.policy_bias]``
    per (AS, provider) pair — different ASes weight the 'same' choice
    differently, and TIPSY can never observe why.
    """
    topo = graph.dense()
    rows = np.repeat(np.arange(topo.n, dtype=np.int64),
                     np.diff(topo.prov_indptr))
    scale = np.array([graph.node(asn).policy_bias for asn in graph.asns],
                     dtype=np.float64)[rows]
    draws = unit_columns(np.column_stack(
        (topo.asns[rows], topo.asns[topo.prov_indices])), seed=seed)
    return np.where(scale > 0.0, scale * draws, 0.0)
