"""The flow-by-flow resolution ``IngressSimulator.resolve_shares`` replaced.

``resolve_shares`` resolves flows as columns, every flow's walk one AS
hop per step.  This is the walk it replaced, kept as the reference the
columns must equal: one flow at a time through ``_resolve`` → ``_walk``
→ ``_link_shares``, with its share cache and the footprint rule — a
flow's latest full resolution is reused under another removal set when
the change reaches nothing the walk read (``IngressSimulator.touched``).

It asks the simulator only for what both paths share by design: routing
tables, ``touched`` and a peer's links.  :func:`drift_days` is the
scalar twin of ``IngressSimulator.shift_days``, one flow a call.

:func:`resolve_one` is the other direction: one flow through the
columnar ``resolve_shares``, read back as a :class:`Resolution`.
:func:`drifted_on` is the per-row drift lookup ``resolve_shares`` made
before it took a ``drifted`` column, one :func:`drift_state` a row.
"""

from __future__ import annotations

from typing import (Any, Dict, FrozenSet, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.bgp import AdvertisementState, IngressSimulator, RoutingTable
from repro.topology.asgraph import Pocket
from repro.topology.wan import PeeringLink
from repro.util.hashing import geometric_day, mix64, rotation, unit

#: (link_id, fraction) pairs, descending fraction; fractions sum to 1.0
ShareVector = Tuple[Tuple[int, float], ...]


class Resolution(NamedTuple):
    """A flow's shares with what says when they stand (``touched``)."""

    shares: ShareVector
    #: every AS whose table row or links the walk read
    footprint: Tuple[int, ...]
    #: the links of every candidate pool the walk ranked
    pools: Tuple[int, ...]
    #: the removal set it was computed under
    removed: FrozenSet[int]


def drift_days(simulator: IngressSimulator, src_asn: int, src_prefix: int,
               dest_prefix: int) -> Tuple[int, int]:
    """(minor shift day, major shift day) for a flow, one
    ``geometric_day`` each."""
    params, seed = simulator.params, simulator.seed
    return (geometric_day(params.minor_drift_daily, src_asn, src_prefix,
                          dest_prefix, 11, seed=seed),
            geometric_day(params.major_drift_daily, src_asn, src_prefix,
                          dest_prefix, 13, seed=seed))


def drift_state(simulator: IngressSimulator, src_asn: int, src_prefix: int,
                dest_prefix: int, day: Optional[int]) -> Tuple[bool, bool]:
    """(minor shifted, major shifted) for a flow on ``day``: on or past
    its ``drift_days``; neither without a day."""
    if day is None:
        return (False, False)
    minor_day, major_day = drift_days(simulator, src_asn, src_prefix,
                                      dest_prefix)
    return (day >= minor_day, day >= major_day)


def drifted_on(simulator: IngressSimulator, src_asn: Sequence[int],
               src_prefix: Sequence[int], dest_prefix: Sequence[int],
               day: Optional[int]) -> Optional[np.ndarray]:
    """Each flow's ``drift_state`` on ``day``, asked row by row, as the
    ``drifted`` column ``resolve_shares`` takes (None without a day)."""
    if day is None:
        return None
    return np.array([drift_state(simulator, int(asn), int(source),
                                 int(dest), day)
                     for asn, source, dest in zip(src_asn, src_prefix,
                                                  dest_prefix)],
                    dtype=np.bool_).reshape(-1, 2)


def resolve_one(simulator: IngressSimulator, src_asn: int, src_metro: str,
                src_prefix: int, dest_prefix: int,
                state: AdvertisementState,
                day: Optional[int] = None) -> Resolution:
    """One flow through the columnar ``resolve_shares``."""
    (_rows, links, fracs, _walked, asns, _pooled,
     pools) = simulator.resolve_shares(
        np.array([src_asn], dtype=np.int64), [src_metro],
        np.array([src_prefix], dtype=np.int64),
        np.array([dest_prefix], dtype=np.int64), state,
        drifted_on(simulator, [src_asn], [src_prefix], [dest_prefix], day))
    return Resolution(tuple(zip(links.tolist(), fracs.tolist())),
                      tuple(asns.tolist()), tuple(pools.tolist()),
                      state.removal_key(dest_prefix))


class ResolveOracle:
    """Per-flow resolution over a simulator's tables, cached per flow."""

    def __init__(self, simulator: IngressSimulator):
        self.sim = simulator
        self.graph = simulator.graph
        self.params = simulator.params
        self.seed = simulator.seed
        # (flow key, removal set) -> resolution, plus flow key -> the
        # flow's latest full resolution (what the footprint rule tries)
        self._share_cache: Dict[Any, Resolution] = {}
        self._link_share_cache: Dict[Tuple[Any, ...], ShareVector] = {}
        self._entry_cache: Dict[Tuple[int, str], str] = {}
        self._ranked_cache: Dict[Tuple[Any, ...], Tuple[int, ...]] = {}
        self._p_cache: Dict[Tuple[int, int], float] = {}

    def resolve_shares(self, src_asn: int, src_metro: str, src_prefix: int,
                       dest_prefix: int, state: AdvertisementState,
                       day: Optional[int] = None) -> ShareVector:
        return self.resolution(src_asn, src_metro, src_prefix, dest_prefix,
                               state, day).shares

    def resolution(self, src_asn: int, src_metro: str, src_prefix: int,
                   dest_prefix: int, state: AdvertisementState,
                   day: Optional[int] = None) -> Resolution:
        removed = state.removal_key(dest_prefix)
        prepends = state.prepend_key(dest_prefix)
        minor, major = drift_state(self.sim, src_asn, src_prefix,
                                   dest_prefix, day)
        flow = (src_asn, src_metro, src_prefix, dest_prefix, prepends,
                minor, major)
        found = self._share_cache.get((flow, removed))
        if found is None:
            # the footprint rule: the flow's latest full resolution, made
            # under another removal set, stands if the change from that
            # set to this one reaches nothing the walk read
            found = self._share_cache.get(flow)
            if found is not None:
                asns, links = self.sim.touched(found.removed, removed)
                if not (asns.isdisjoint(found.footprint)
                        and links.isdisjoint(found.pools)):
                    found = None
            if found is None:
                found = self._resolve(src_asn, src_metro, src_prefix,
                                      dest_prefix, removed, minor, major,
                                      dict(prepends) or None)
                self._share_cache[flow] = found
            self._share_cache[(flow, removed)] = found
        return found

    def _usable(self, asn: int, removed: FrozenSet[int]
                ) -> Tuple[Sequence[PeeringLink], Tuple[int, ...]]:
        """A peer's links not in ``removed``, and their ids."""
        kept = [l for l in self.sim._links_by_peer.get(asn, ())
                if l.link_id not in removed]
        return kept, tuple(l.link_id for l in kept)

    def _resolve(
        self,
        src_asn: int,
        src_metro: str,
        src_prefix: int,
        dest_prefix: int,
        removed: FrozenSet[int],
        minor: bool,
        major: bool,
        prepends: Optional[Dict[int, int]] = None,
    ) -> Resolution:
        if src_asn == self.sim.wan.asn:
            raise ValueError("internal WAN traffic has no ingress link")
        if src_asn not in self.graph:
            return Resolution((), (), (), removed)
        table = self.sim.routing_table(removed)
        node = self.graph.node(src_asn)
        rotate_extra = (1 if minor else 0) + (2 if major else 0)
        accum: Dict[int, float] = {}
        visited: List[int] = [src_asn]
        pools: List[int] = []

        def add(links: Sequence[PeeringLink], ids: Tuple[int, ...],
                entry: str, weight: float) -> None:
            pool, shares = self._link_shares(
                links, ids, entry, src_prefix, dest_prefix, rotate_extra,
                prepends=prepends)
            pools.extend(pool)
            for link_id, frac in shares:
                accum[link_id] = accum.get(link_id, 0.0) + frac * weight

        pocket = node.pocket_for(src_metro)
        own, own_ids = self._usable(src_asn, removed)
        if pocket is not None:
            own = [l for l in own if l.metro in pocket.metros]
            own_ids = tuple(l.link_id for l in own)
            visited.extend(pocket.providers)

        if own:
            add(own, own_ids, src_metro, 1.0)
        else:
            candidates = self._origin_candidates(src_asn, pocket, table)
            if not candidates:
                return Resolution((), tuple(visited), (), removed)
            # keyed by the candidate set: a change in the viable next-hops
            # re-draws the choice among the survivors
            rot = rotation(len(candidates), src_asn, src_prefix, dest_prefix,
                           3, *candidates, seed=self.seed)
            ordered = candidates[rot:] + candidates[:rot]
            if major and len(ordered) > 1:
                ordered = ordered[1:] + ordered[:1]
            picks = ordered[:2]
            if len(picks) == 1:
                weights = [1.0]
            else:
                weights = [1.0 - self.params.origin_split,
                           self.params.origin_split]
            delivered_weight = 0.0
            for nh, w in zip(picks, weights):
                entry = self._entry_metro(nh, src_metro)
                outcome = self._walk(nh, entry, src_prefix, dest_prefix,
                                     removed, table, visited)
                if outcome is None:
                    continue
                d_metro, links, ids = outcome
                add(links, ids, d_metro, w)
                delivered_weight += w
            if delivered_weight <= 0.0:
                return Resolution((), tuple(visited), (), removed)
            if delivered_weight < 1.0:
                accum = {k: v / delivered_weight for k, v in accum.items()}

        shares = tuple(sorted(accum.items(), key=lambda kv: (-kv[1], kv[0])))
        return Resolution(shares, tuple(visited), tuple(pools), removed)

    def _origin_candidates(self, src_asn: int, pocket: Optional[Pocket],
                           table: RoutingTable) -> List[int]:
        """Ranked next-hop ASNs for an origin that cannot deliver itself."""
        if pocket is not None:
            candidates = [p for p in pocket.providers if p in table]
            if candidates:
                return candidates
        info = table.get(src_asn)
        if info is None:
            return []
        return list(info.nexthops)

    def _walk(
        self,
        asn: int,
        entry_metro: str,
        src_prefix: int,
        dest_prefix: int,
        removed: FrozenSet[int],
        table: RoutingTable,
        visited: List[int],
    ) -> Optional[Tuple[str, Sequence[PeeringLink], Tuple[int, ...]]]:
        """Follow the AS-level route until an AS with usable links
        delivers: its entry metro, usable links and their ids."""
        for _ in range(self.params.max_walk_depth):
            visited.append(asn)
            info = table.get(asn)
            if info is None:
                return None
            if info.direct:
                links, ids = self._usable(asn, removed)
                if links:
                    return entry_metro, links, ids
                return None
            if not info.nexthops:
                return None
            nexthops = info.nexthops
            idx = rotation(len(nexthops), asn, src_prefix, dest_prefix, 5,
                           *nexthops, seed=self.seed)
            nh = nexthops[idx]
            entry_metro = self._entry_metro(nh, entry_metro)
            asn = nh
        return None

    def _entry_metro(self, asn: int, from_metro: str) -> str:
        """Where traffic coming from ``from_metro`` enters AS ``asn``."""
        key = (asn, from_metro)
        entry = self._entry_cache.get(key)
        if entry is None:
            footprint = self.graph.node(asn).footprint
            entry = self.graph.metros.nearest(from_metro, footprint)
            self._entry_cache[key] = entry
        return entry

    def _link_shares(
        self,
        links: Sequence[PeeringLink],
        ids: Tuple[int, ...],
        entry_metro: str,
        src_prefix: int,
        dest_prefix: int,
        rotate_extra: int,
        prepends: Optional[Dict[int, int]] = None,
    ) -> Tuple[Tuple[int, ...], ShareVector]:
        """Hot-potato byte-share split over a delivering AS's links, as
        (the candidate pool, the shares)."""
        metros = self.graph.metros

        def effective_distance(link: PeeringLink) -> float:
            distance = metros.distance_km(entry_metro, link.metro)
            if prepends:
                times = prepends.get(link.link_id)
                if times:
                    honoured = unit(link.link_id, src_prefix, dest_prefix,
                                    23, seed=self.seed)
                    if honoured < self.params.te_compliance:
                        distance += times * self.params.te_prepend_km
            return distance

        rank_key = (entry_metro, ids)
        pool = None if prepends else self._ranked_cache.get(rank_key)
        if pool is None:
            ranked = sorted(
                links,
                key=lambda l: (effective_distance(l), l.link_id),
            )
            d0 = effective_distance(ranked[0])
            radius = d0 + self.params.reroute_radius_km
            pool = tuple(
                l.link_id for l in ranked[: self.params.candidate_pool_size]
                if effective_distance(l) <= radius
            )
            if not prepends:
                self._ranked_cache[rank_key] = pool
        memo_key = (pool, src_prefix, dest_prefix, rotate_extra)
        shares = self._link_share_cache.get(memo_key)
        if shares is not None:
            return pool, shares
        pool_base = mix64(17, *pool, seed=self.seed)
        locality = self.params.locality
        keyed = []
        for rank, link_id in enumerate(pool):
            weight = locality ** rank
            u = unit(src_prefix, dest_prefix, link_id, seed=pool_base)
            keyed.append((-(max(u, 1e-12) ** (1.0 / weight)), link_id))
        keyed.sort()
        ordered = [link_id for _key, link_id in keyed]
        if rotate_extra and len(ordered) > 1:
            shift = rotate_extra % len(ordered)
            ordered = ordered[shift:] + ordered[:shift]

        p_key = (src_prefix, dest_prefix)
        p = self._p_cache.get(p_key)
        if p is None:
            u = unit(src_prefix, dest_prefix, 19, seed=self.seed)
            p = self.params.primary_share_lo + (
                self.params.primary_share_hi - self.params.primary_share_lo
            ) * (1.0 - u ** self.params.primary_share_skew)
            self._p_cache[p_key] = p
        sw = self.params.secondary_weight
        raw = [p, (1.0 - p) * sw, (1.0 - p) * (1.0 - sw)]
        take = ordered[:3]
        weights = raw[: len(take)]
        total = sum(weights)
        shares = tuple((link_id, w / total)
                       for link_id, w in zip(take, weights))
        self._link_share_cache[memo_key] = shares
        return pool, shares
