"""Ground-truth ingress resolution for the synthetic Internet.

Given a flow (source AS, source metro, source /24, destination prefix) and
the current advertisement state, the simulator computes the distribution of
the flow's bytes over the WAN's peering links.  This plays the role the
real Internet played for Azure: the TIPSY predictor never calls it — it
only sees IPFIX-style telemetry derived from its output.

The resolution pipeline per flow:

1. **Origin egress.** If the source AS has usable peering links of its own
   (respecting pockets — isolated islands that can only use local exits),
   it delivers directly.  Otherwise it hands off to one or two ranked
   provider next-hops (the second with a small weight, modelling egress
   load balancing).
2. **Path walk.** Each intermediate AS either delivers (if it has usable
   links) or forwards to its best-ranked provider; the flow's geographic
   "entry point" advances to the nearest metro of each next AS's footprint.
3. **Hot-potato link choice.** The delivering AS ranks its usable links by
   distance from the flow's entry metro; links within a tolerance form an
   ECMP set.  A stable per-flow hash picks the primary; the byte share is
   split ~[p, (1-p)·w, (1-p)·(1-w)] over the first three links, with p
   drawn per flow from a configurable range.  This produces the imperfect
   top-1 oracle of paper Figure 5.
4. **Slow drift.** Each flow has deterministic "shift days" after which its
   link rotation (minor) or origin next-hop (major) changes — the
   Internet's slow routing churn behind paper Figure 10.

A crucial design choice (DESIGN.md §4): every hash-based choice is keyed
by the *identity of the candidate set*, not just the flow.  Withdrawing a
link therefore re-draws the choice among the survivors — deterministic
(the same withdrawal always lands the same way, so models that saw an
outage in training predict its repeat accurately, paper Table 6) yet
unknowable from pre-withdrawal history alone (models that never saw it
degrade, paper Table 7).  Geography still constrains the outcome, which
is why the AL+G completion recovers much of the loss.

Results are cached per (flow, removal-key, drift-state) together with
what they read — their *footprint*, the ASes whose table rows and links
the walk read, and their *pools*, the links of every candidate pool it
ranked — and a result computed under one removal set is reused under
another whenever the change reaches neither (:meth:`touched`: a restored
link or a changed route reaches its AS, a removed link only the pools
that held it); routing tables are cached per seeded-neighbor set, so
week-long simulations stay fast.  The hot caches are bounded LRU maps
(``SimulatorParams`` capacities) so those simulations also stay bounded
in memory; table-cache misses are repaired by dirty-set recomputation
from a pinned full-availability table
(``propagation.update_routing_table``) instead of full rebuilds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, FrozenSet, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ..obs import runtime as obs
from ..topology.asgraph import ASGraph, Pocket
from ..topology.wan import CloudWAN, PeeringLink
from ..util.cache import LruDict
from ..util.hashing import geometric_day, mix64, rotation, unit
from .propagation import (RoutingTable, compute_routing_table, default_bias,
                          update_routing_table)
from .state import AdvertisementState

#: (link_id, fraction) pairs, descending fraction; fractions sum to 1.0
ShareVector = Tuple[Tuple[int, float], ...]


class Resolution(NamedTuple):
    """A flow's shares with what says when they stand (:meth:`touched`)."""

    shares: ShareVector
    #: every AS whose table row or links the walk read
    footprint: Tuple[int, ...]
    #: the links of every candidate pool the walk ranked
    pools: Tuple[int, ...]
    #: the removal set it was computed under
    removed: FrozenSet[int]


@dataclass
class SimulatorParams:
    """Behavioural knobs of the synthetic Internet's routing."""

    # a delivering AS considers its nearest `candidate_pool_size` links
    # within `reroute_radius_km` of the closest one
    candidate_pool_size: int = 5
    reroute_radius_km: float = 2500.0
    # geometric decay of link preference with distance rank: the nearest
    # link is chosen as primary with probability ~ 1/(sum of locality^i).
    # Smaller = more strictly hot-potato; larger = more regional spread.
    locality: float = 0.35
    # per-flow primary byte share lies in [lo, hi]; the skew exponent
    # biases the draw toward hi, so many flows are near-single-link (their
    # secondaries vanish under IPFIX sampling and history has no fallback
    # to offer when their link is withdrawn — the paper's unseen-outage
    # failure mode) while a spread-out minority keeps oracles imperfect.
    primary_share_lo: float = 0.60
    primary_share_hi: float = 0.995
    primary_share_skew: float = 2.0
    # fraction of the non-primary remainder that goes to the 2nd link
    secondary_weight: float = 0.75
    # weight of the origin AS's secondary next-hop (egress load balancing)
    origin_split: float = 0.15
    # daily probability that a flow's link rotation / next-hop shifts
    minor_drift_daily: float = 0.006
    major_drift_daily: float = 0.002
    max_walk_depth: int = 24
    # ingress TE (AS-path prepending): each prepend hop adds this much
    # effective distance to a link's hot-potato rank, and each upstream
    # AS honours the hint only with this probability (§2: prepending is
    # coarse and "may just be ignored by ASes along the path")
    te_prepend_km: float = 1200.0
    te_compliance: float = 0.85
    # bounded-cache capacities (<= 0 = unbounded).  Week-long runs touch
    # millions of (flow, removal-key, drift) share keys and an open-ended
    # set of removal keys; these caps turn that into bounded memory with
    # LRU recency doing the keeping (docs/architecture.md, cache table)
    share_cache_size: int = 262144
    table_cache_size: int = 256


class IngressSimulator:
    """Resolves flows to peering-link byte shares under a routing state."""

    def __init__(
        self,
        graph: ASGraph,
        wan: CloudWAN,
        params: Optional[SimulatorParams] = None,
        seed: int = 0,
    ):
        self.graph = graph
        self.wan = wan
        self.params = params or SimulatorParams()
        self.seed = seed
        self._bias = default_bias(graph, seed)
        self._links_by_peer: Dict[int, Tuple[PeeringLink, ...]] = {
            asn: wan.links_of_peer(asn) for asn in wan.peer_asns
        }
        self._link_ids_by_peer: Dict[int, Tuple[int, ...]] = {
            asn: tuple(l.link_id for l in links)
            for asn, links in self._links_by_peer.items()
        }
        self._peer_asns = frozenset(a for a in wan.peer_asns if a in graph)
        p = self.params
        self._table_by_removed: LruDict[FrozenSet[int], RoutingTable] = \
            LruDict(p.table_cache_size)
        self._table_by_seeded: LruDict[FrozenSet[int], RoutingTable] = \
            LruDict(p.table_cache_size)
        # (flow key, removal set) -> resolution, plus flow key -> the
        # flow's latest full resolution (what the footprint rule tries)
        self._share_cache: LruDict[Tuple[Any, ...], Resolution] = \
            LruDict(p.share_cache_size)
        self._link_share_cache: LruDict[Tuple[Any, ...], ShareVector] = \
            LruDict(p.share_cache_size)
        self._entry_cache: Dict[Tuple[int, str], str] = {}
        self._touched_cache: LruDict[
            Tuple[FrozenSet[int], FrozenSet[int]],
            Tuple[FrozenSet[int], FrozenSet[int]]] = \
            LruDict(p.table_cache_size)
        self._drift_cache: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        self._ranked_cache: Dict[Tuple[Any, ...], Tuple[int, ...]] = {}
        self._p_cache: Dict[Tuple[int, int], float] = {}
        # the full-availability table every incremental update derives
        # from; pinned outside the LRU so eviction can never force a
        # second full rebuild
        self._base_table_pin: Optional[RoutingTable] = None
        # hit/miss counters for the ranked candidate pools (the LRU
        # caches carry their own counters)
        self._ranked_hits = 0
        self._ranked_misses = 0
        self._table_full_rebuilds = 0
        self._table_incremental_updates = 0

    # -- routing tables -----------------------------------------------------

    def seeded_for(self, removed: FrozenSet[int]) -> FrozenSet[int]:
        """Peers that keep >= 1 available link once ``removed`` is gone."""
        wan = self.wan
        return self._peer_asns - {
            asn for asn in {wan.link(l).peer_asn
                            for l in removed if wan.has_link(l)}
            if all(l.link_id in removed for l in self._links_by_peer[asn])}

    def _base_table(self) -> RoutingTable:
        """Full-availability table (computed once, pinned forever)."""
        if self._base_table_pin is None:
            self._table_full_rebuilds += 1
            self._base_table_pin = compute_routing_table(
                self.graph, self._peer_asns, self._bias)
        return self._base_table_pin

    def routing_table(self, removed: FrozenSet[int]) -> RoutingTable:
        """AS-level routing table for a set of removed links (cached).

        Cache misses no longer pay a full rebuild: the table for a new
        seeded-neighbor set is derived from the pinned full-availability
        table by dirty-set recomputation (``update_routing_table``),
        bit-identical to a from-scratch compute.
        """
        table = self._table_by_removed.get(removed)
        if table is not None:
            return table
        seeded = self.seeded_for(removed)
        table = self._table_by_seeded.get(seeded)
        if table is None:
            base = self._base_table()
            if seeded == base.seeded:
                table = base
            else:
                self._table_incremental_updates += 1
                table = update_routing_table(self.graph, base, seeded,
                                             self._bias)
            self._table_by_seeded[seeded] = table
        self._table_by_removed[removed] = table
        return table

    def touched(self, before: FrozenSet[int], after: FrozenSet[int]
                ) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """The footprint rule, as (ASes, links): a resolution made under
        ``before`` stands under ``after`` unless its footprint meets the
        ASes or its pools meet the links (cached).

        The ASes are those whose route differs between the two tables
        and the owners of the *restored* links: any pool of the owner may
        admit a link that comes back.  The links are the *removed* ones:
        a link outside a pool ranks after every member or beyond the
        radius, so deleting it reorders nothing before it; the nearest
        link is always in the pool (pocket-filtered and TE-ranked alike),
        so no link list empties without a pool member going; and a peer
        losing its last link changes the tables."""
        key = (before, after)
        touched = self._touched_cache.get(key)
        if touched is None:
            touched = (frozenset(
                self.wan.link(l).peer_asn for l in before - after
            ) | self.routing_table(before).changed_asns(
                self.routing_table(after)), after - before)
            self._touched_cache[key] = touched
        return touched

    def as_distance(self, asn: int) -> Optional[int]:
        """AS-hop distance to the WAN under full availability (Figure 2)."""
        return self.routing_table(frozenset()).distance(asn)

    # -- drift ----------------------------------------------------------------

    def drift_days(self, src_asn: int, src_prefix: int,
                   dest_prefix: int) -> Tuple[int, int]:
        """(minor shift day, major shift day) for a flow (memoized)."""
        key = (src_asn, src_prefix, dest_prefix)
        days = self._drift_cache.get(key)
        if days is None:
            days = (
                geometric_day(self.params.minor_drift_daily,
                              src_asn, src_prefix, dest_prefix, 11,
                              seed=self.seed),
                geometric_day(self.params.major_drift_daily,
                              src_asn, src_prefix, dest_prefix, 13,
                              seed=self.seed),
            )
            self._drift_cache[key] = days
        return days

    def drift_state(self, src_asn: int, src_prefix: int, dest_prefix: int,
                    day: Optional[int]) -> Tuple[bool, bool]:
        """(minor_shifted, major_shifted) for a flow on a given day."""
        if day is None:
            return (False, False)
        minor_day, major_day = self.drift_days(src_asn, src_prefix, dest_prefix)
        return (day >= minor_day, day >= major_day)

    # -- resolution -----------------------------------------------------------

    def resolve_shares(
        self,
        src_asn: int,
        src_metro: str,
        src_prefix: int,
        dest_prefix: int,
        state: AdvertisementState,
        day: Optional[int] = None,
    ) -> ShareVector:
        """Distribution of a flow's bytes over peering links (cached).

        Returns an empty tuple if the flow has no route to the WAN (all
        candidate paths withdrawn) — callers account those bytes as lost.
        """
        return self.resolution(src_asn, src_metro, src_prefix, dest_prefix,
                               state, day).shares

    def footprint(
        self,
        src_asn: int,
        src_metro: str,
        src_prefix: int,
        dest_prefix: int,
        state: AdvertisementState,
        day: Optional[int] = None,
    ) -> Tuple[int, ...]:
        """The ASes :meth:`resolve_shares` read for this flow and state."""
        return self.resolution(src_asn, src_metro, src_prefix, dest_prefix,
                               state, day, count=False).footprint

    def resolution(self, src_asn: int, src_metro: str, src_prefix: int,
                   dest_prefix: int, state: AdvertisementState,
                   day: Optional[int] = None, count: bool = True
                   ) -> Resolution:
        """:meth:`resolve_shares` with the footprint and pools it read
        (``count=False``: a look-up the hit counters do not see)."""
        removed = state.removal_key(dest_prefix)
        prepends = state.prepend_key(dest_prefix)
        minor, major = self.drift_state(src_asn, src_prefix, dest_prefix, day)
        flow = (src_asn, src_metro, src_prefix, dest_prefix, prepends,
                minor, major)
        found = self._share_cache.get((flow, removed), count=count)
        if found is None:
            # the footprint rule: the flow's latest full resolution, made
            # under another removal set, stands if the change from that
            # set to this one reaches nothing the walk read
            found = self._share_cache.get(flow, count=False)
            if found is not None:
                asns, links = self.touched(found.removed, removed)
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
        if src_asn == self.wan.asn:
            raise ValueError("internal WAN traffic has no ingress link")
        if src_asn not in self.graph:
            return Resolution((), (), (), removed)
        table = self.routing_table(removed)
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
            rot = rotation(len(candidates), src_asn, src_prefix, dest_prefix, 3,
                           *candidates, seed=self.seed)
            ordered = candidates[rot:] + candidates[:rot]
            if major and len(ordered) > 1:
                ordered = ordered[1:] + ordered[:1]
            picks = ordered[:2]
            if len(picks) == 1:
                weights = [1.0]
            else:
                weights = [1.0 - self.params.origin_split, self.params.origin_split]
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

    def _usable(self, asn: int, removed: FrozenSet[int]
                ) -> Tuple[Sequence[PeeringLink], Tuple[int, ...]]:
        """A peer's links not in ``removed``, and their ids: the
        precomputed pair when ``removed`` misses them all."""
        links = self._links_by_peer.get(asn, ())
        ids = self._link_ids_by_peer.get(asn, ())
        if removed.isdisjoint(ids):
            return links, ids
        kept = [l for l in links if l.link_id not in removed]
        return kept, tuple(l.link_id for l in kept)

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
        """Hot-potato byte-share split over a delivering AS's links
        (``ids`` their link ids, in order), as (the candidate pool, the
        shares).

        The nearest ``candidate_pool_size`` links within
        ``reroute_radius_km`` of the closest exit form the candidate pool.
        A deterministic weighted shuffle (Efraimidis-Spirakis with
        geometric weights by distance rank) orders the pool per flow —
        biased toward the nearest exit but not slavishly — and the byte
        shares [p, (1-p)w, (1-p)(1-w)] go to the first three links.

        The shuffle keys include the pool's membership, so withdrawing a
        pool member re-draws the whole assignment among the survivors:
        deterministic (repeats identically, hence learnable once seen)
        but uncorrelated with the pre-withdrawal ranking (hence opaque to
        pure history).
        """
        metros = self.graph.metros

        def effective_distance(link: PeeringLink) -> float:
            distance = metros.distance_km(entry_metro, link.metro)
            if prepends:
                times = prepends.get(link.link_id)
                if times:
                    # the hint is honoured per (delivering link, flow)
                    # only with te_compliance probability
                    honoured = unit(link.link_id, src_prefix, dest_prefix,
                                    23, seed=self.seed)
                    if honoured < self.params.te_compliance:
                        distance += times * self.params.te_prepend_km
            return distance

        # the pool cache is only valid without TE state: compliance is
        # per-flow, so prepended rankings are computed fresh (TE prefixes
        # are rare — 0.7% in the paper's network)
        rank_key = (entry_metro, ids)
        pool = None if prepends else self._ranked_cache.get(rank_key)
        if not prepends:
            if pool is None:
                self._ranked_misses += 1
            else:
                self._ranked_hits += 1
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
        # past the pool the split is a pure function of this key: a flow
        # re-resolved under a change that left its pool alone (a restored
        # link or a drifted route is rarely among its nearest) stops here
        memo_key = (pool, src_prefix, dest_prefix, rotate_extra)
        shares = self._link_share_cache.get(memo_key)
        if shares is not None:
            return pool, shares
        # fold the pool membership into one hash base so each member draw
        # is a single extra mixing round
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

    # -- statistics -----------------------------------------------------------

    def cache_stats(self) -> Dict[str, int]:
        """Occupancy of every cache plus hot-path hit/miss counters."""
        return {
            "share_entries": len(self._share_cache),
            "link_share_entries": len(self._link_share_cache),
            "entry_metro_entries": len(self._entry_cache),
            "touched_entries": len(self._touched_cache),
            "drift_entries": len(self._drift_cache),
            "ranked_pool_entries": len(self._ranked_cache),
            "primary_share_entries": len(self._p_cache),
            "tables_by_removed": len(self._table_by_removed),
            "tables_by_seeded": len(self._table_by_seeded),
            "share_hits": self._share_cache.hits,
            "share_misses": self._share_cache.misses,
            "share_evictions": self._share_cache.evictions,
            "link_share_hits": self._link_share_cache.hits,
            "link_share_misses": self._link_share_cache.misses,
            "table_hits": self._table_by_removed.hits,
            "table_misses": self._table_by_removed.misses,
            "table_seeded_hits": self._table_by_seeded.hits,
            "table_seeded_misses": self._table_by_seeded.misses,
            "table_evictions": (self._table_by_removed.evictions
                                + self._table_by_seeded.evictions),
            "table_full_rebuilds": self._table_full_rebuilds,
            "table_incremental_updates": self._table_incremental_updates,
            "ranked_pool_hits": self._ranked_hits,
            "ranked_pool_misses": self._ranked_misses,
        }

    def export_gauges(self) -> None:
        """Publish :meth:`cache_stats` plus per-cache hit rates to the
        obs registry as gauges (``bgp.simulator.*``); a no-op while
        instrumentation is off.

        Gauges rather than counters on purpose: the snapshot reflects
        this simulator instance's current state, and re-exporting must
        overwrite, not accumulate.
        """
        if not obs.enabled():
            return
        gauges = {key: float(value)
                  for key, value in self.cache_stats().items()}
        gauges["share_hit_rate"] = self._share_cache.hit_rate
        gauges["link_share_hit_rate"] = self._link_share_cache.hit_rate
        gauges["table_hit_rate"] = self._table_by_removed.hit_rate
        obs.set_gauges(gauges, prefix="bgp.simulator.")
