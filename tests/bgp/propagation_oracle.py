"""The per-row routing-table build ``compute_routing_table`` replaced.

``compute_routing_table`` ranks every provider edge of the graph in one
``np.lexsort``.  This is the build it replaced, kept as the reference
its columns must equal: distances by a plain-Python breadth-first
search over the graph's customer adjacency, then each row's ranked
next-hops decided on their own by :func:`_decide_nexthops`, with the
policy bias as a per-(AS, provider) function (:func:`scalar_bias`).

It shares with the columnar build only the :class:`RoutingTable`
container and the graph's dense row order, so that the two compare
column for column.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, FrozenSet, List, Tuple

import numpy as np

from repro.bgp import MAX_NEXTHOPS, SPRAY_TOLERANCE, RoutingTable
from repro.topology.asgraph import ASGraph, DenseTopology
from repro.util.hashing import unit

#: ``bias(asn, provider) -> float``
Bias = Callable[[int, int], float]


def scalar_bias(graph: ASGraph, seed: int) -> Bias:
    """``default_bias`` as a function of one (AS, provider) pair."""
    nodes = {node.asn: node.policy_bias for node in graph.nodes()}

    def bias(asn: int, provider: int) -> float:
        scale = nodes.get(asn, 0.0)
        if scale <= 0.0:
            return 0.0
        return scale * unit(asn, provider, seed=seed)

    return bias


def _decide_nexthops(asn: int, dist: np.ndarray, prov_rows: np.ndarray,
                     asns: np.ndarray, bias: Bias) -> Tuple[int, ...]:
    """Ranked next-hops for one AS given provider distances."""
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


def _decide_rows(topo: DenseTopology, dist: np.ndarray, rows: np.ndarray,
                 bias: Bias, nexthops: np.ndarray) -> None:
    """Write the ranked next-hops of each of ``rows`` that has a route
    into ``nexthops``, whose rows arrive ``-1`` padded."""
    for row in rows[dist[rows] >= 0].tolist():
        hops = _decide_nexthops(int(topo.asns[row]), dist,
                                topo.providers_of(row), topo.asns, bias)
        nexthops[row, :len(hops)] = hops


def bfs_distances(graph: ASGraph, seeded: FrozenSet[int]) -> Dict[int, int]:
    """AS-hop distance of every AS with a route: 1 for a seeded AS, and
    one more than its nearest provider's for every other."""
    dist = {asn: 1 for asn in seeded if asn in graph}
    queue = deque(sorted(dist))
    while queue:
        asn = queue.popleft()
        for customer in graph.customers(asn):
            if customer not in dist:
                dist[customer] = dist[asn] + 1
                queue.append(customer)
    return dist


def oracle_table(graph: ASGraph, seeded: FrozenSet[int],
                 bias: Bias) -> RoutingTable:
    """The table for one seeded-neighbor set, built row by row."""
    topo = graph.dense()
    found = bfs_distances(graph, seeded)
    dist = np.array([found.get(asn, -1) for asn in graph.asns],
                    dtype=np.int32).reshape(topo.n)
    direct = np.array([asn in seeded for asn in graph.asns],
                      dtype=np.bool_).reshape(topo.n)
    nexthops = np.full((topo.n, MAX_NEXTHOPS), -1, dtype=np.int64)
    _decide_rows(topo, dist, np.arange(topo.n, dtype=np.int64), bias,
                 nexthops)
    return RoutingTable(topo, dist, direct, nexthops, seeded)
