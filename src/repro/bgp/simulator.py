"""Ground-truth ingress resolution for the synthetic Internet.

Given flows (source AS, source metro, source /24, destination prefix) and
the current advertisement state, the simulator computes the distribution
of each flow's bytes over the WAN's peering links.  This plays the role
the real Internet played for Azure: the TIPSY predictor never calls it —
it only sees IPFIX-style telemetry derived from its output.

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

:meth:`IngressSimulator.resolve_shares` resolves a set of flows in one
call, as columns: every walk advances one AS hop per step, choosing by
column hashes (``util.hashing``).  Each flow also reports what it read —
its *footprint* (the ASes whose rows and links the walk read) and its
*pools* (the links of every candidate pool it ranked) — so a caller can
tell which flows a change of removal set reaches (:meth:`touched`); the
flow-by-flow walk it replaced is the test oracle
(``tests/bgp/resolve_oracle.py``).  A flow's drift comes in as a column
(``drifted``: past its minor and major shift days, :meth:`shift_days`),
not as a lookup per row.  Routing tables are cached per removal key and
per seeded-neighbor set, a miss of both computed from scratch
(``compute_routing_table``, over a policy-bias column built once); the
walk reads their ``direct`` and ``nexthops`` columns, stacked one table
per removal key and kept per removal-key set (``_STACK_SLOTS``).  A
candidate pool without TE is kept per (AS, entry metro, pocket, the
AS's removed links), ``_POOL_SLOTS`` of them.  The one per-flow memo left, the split past the
candidate pool, is bounded by ``SimulatorParams.share_cache_size``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import (Any, Dict, FrozenSet, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from ..obs import runtime as obs
from ..topology.asgraph import ASGraph, Pocket
from ..topology.wan import CloudWAN, PeeringLink
from ..util.cache import LruDict
from ..util.hashing import (geometric_day, mix64_columns, rotation_columns,
                            unit, unit_columns)
from .propagation import (MAX_NEXTHOPS, RoutingTable, compute_routing_table,
                          default_bias)
from .state import AdvertisementState

#: stacked table sets kept: a probe's removal-key set recurs when the
#: same link is probed again on a later hour
_STACK_SLOTS = 64
#: candidate pools kept by (AS, entry metro, pocket, its removed links)
_POOL_SLOTS = 1 << 16


class _Stack(NamedTuple):
    """One routing table per removal key, their columns stacked: a
    walk's lane reads row ``[table index, AS row]``."""

    tables: Tuple[RoutingTable, ...]
    direct: np.ndarray
    nexthops: np.ndarray
    n_hops: np.ndarray


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
    # millions of (candidate pool, flow, drift) splits and an open-ended
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
        # link id -> its peer, for the peers of the AS graph
        self._peer_of_link = {
            link_id: asn for asn, ids in self._link_ids_by_peer.items()
            if asn in self._peer_asns for link_id in ids}
        p = self.params
        self._table_by_removed: LruDict[FrozenSet[int], RoutingTable] = \
            LruDict(p.table_cache_size)
        # keyed by the peers that go dark (lose every link): the seeded
        # set is the rest, so each key names one seeded set
        self._table_by_dark: LruDict[FrozenSet[int], RoutingTable] = \
            LruDict(p.table_cache_size)
        # (candidate pool, src prefix, dest prefix, rotation) -> the split
        # as six float64 bytes: three links, then their fractions (-1 and
        # 0.0 past the pool's size), so a call's splits are one buffer
        self._split_memo: LruDict[Tuple[Any, ...], bytes] = \
            LruDict(p.share_cache_size)
        self._stacks: LruDict[Tuple[FrozenSet[int], ...], _Stack] = \
            LruDict(_STACK_SLOTS)
        self._touched_cache: LruDict[
            Tuple[FrozenSet[int], FrozenSet[int]],
            Tuple[FrozenSet[int], FrozenSet[int]]] = \
            LruDict(p.table_cache_size)
        self._drift_cache: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        # (AS row, entry metro code, pocket, the AS's removed links) ->
        # the candidate pool without TE
        self._ranked_pools: LruDict[Tuple[int, int, int, FrozenSet[int]],
                                    Tuple[int, ...]] = LruDict(_POOL_SLOTS)
        self._p_cache: Dict[Tuple[int, int], float] = {}
        # the tables computed (the LRU caches carry their own counters)
        self._table_full_rebuilds = 0
        # the walk's frame: dense AS rows (those of every routing table),
        # metro codes, each (AS row, metro)'s pocket (the AS's first that
        # holds the metro, -1: none) and entry metro (-1 until first used)
        self._topo = topo = graph.dense()
        self._asn_order = np.argsort(topo.asns, kind="stable")
        self._asns_sorted = topo.asns[self._asn_order]
        self._metro_names = graph.metros.names
        self._metro_code = {m: i for i, m in enumerate(self._metro_names)}
        self._metro_order = np.argsort(np.array(self._metro_names, dtype=str),
                                       kind="stable")
        self._metros_sorted = np.array(self._metro_names,
                                       dtype=str)[self._metro_order]
        self._pockets: List[Pocket] = []
        self._pocket_of = np.full((topo.n, len(self._metro_names)), -1,
                                  dtype=np.int64)
        for node in graph.nodes():
            for pocket in reversed(node.pockets):
                self._pocket_of[topo.index[node.asn], [
                    self._metro_code[m] for m in sorted(pocket.metros)]] = \
                    len(self._pockets)
                self._pockets.append(pocket)
        self._width = max([MAX_NEXTHOPS] + [len(p.providers)
                                            for p in self._pockets])
        self._entry_of = np.full(self._pocket_of.shape, -1, dtype=np.int64)

    # -- routing tables -----------------------------------------------------

    def seeded_for(self, removed: FrozenSet[int]) -> FrozenSet[int]:
        """Peers that keep >= 1 available link once ``removed`` is gone."""
        return self._peer_asns - self._dark_peers(removed)

    def _dark_peers(self, removed: FrozenSet[int]) -> FrozenSet[int]:
        """Peers (of the AS graph) that lose every link once ``removed``
        is gone; ids the WAN does not have are ignored."""
        peer_of = self._peer_of_link
        removed_of: Dict[int, int] = {}
        for link_id in removed:
            asn = peer_of.get(link_id)
            if asn is not None:
                removed_of[asn] = removed_of.get(asn, 0) + 1
        ids_of = self._link_ids_by_peer
        return frozenset(asn for asn, n in removed_of.items()
                         if n == len(ids_of[asn]))

    def _check_graph(self) -> None:
        if self.graph.dense() is not self._topo:
            raise RuntimeError("the AS graph changed after the simulator "
                               "was built")

    def routing_table(self, removed: FrozenSet[int]) -> RoutingTable:
        """AS-level routing table for a set of removed links (cached per
        removal key and per seeded-neighbor set, the latter keyed by the
        peers that go dark; a miss of both computes the table).  Raises
        ``RuntimeError`` once the AS graph has changed after the
        simulator was built."""
        self._check_graph()
        table = self._table_by_removed.get(removed)
        if table is not None:
            return table
        dark = self._dark_peers(removed)
        table = self._table_by_dark.get(dark)
        if table is None:
            self._table_full_rebuilds += 1
            table = compute_routing_table(
                self.graph, self._peer_asns - dark, self._bias)
            self._table_by_dark[dark] = table
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

    def _stacked(self, removals: Tuple[FrozenSet[int], ...]) -> _Stack:
        """The tables of ``removals`` and their stacked columns (cached
        per removal-key tuple)."""
        self._check_graph()
        stack = self._stacks.get(removals)
        if stack is None:
            stack = self._stack(removals)
            self._stacks[removals] = stack
        return stack

    def _stack(self, removals: Tuple[FrozenSet[int], ...]) -> _Stack:
        """One routing table per removal key, its ``direct`` and
        ``nexthops`` stacked, and each (table, AS)'s next-hop count."""
        tables = tuple(self.routing_table(removed) for removed in removals)
        hops = np.stack([table.nexthops for table in tables])
        return _Stack(tables, np.stack([table.direct for table in tables]),
                      hops, (hops >= 0).sum(axis=2, dtype=np.int64))

    def as_distance(self, asn: int) -> Optional[int]:
        """AS-hop distance to the WAN under full availability (Figure 2)."""
        return self.routing_table(frozenset()).distance(asn)

    # -- drift ----------------------------------------------------------------

    def shift_days(self, src_asn: np.ndarray, src_prefix: np.ndarray,
                   dest_prefix: np.ndarray) -> np.ndarray:
        """:meth:`drift_days` of flows given as aligned columns, an
        ``(n, 2)`` ``int64`` array; ``day >= shift_days(...)`` is the
        ``drifted`` column :meth:`resolve_shares` takes."""
        return np.array(list(map(self.drift_days, *(
            np.asarray(column, dtype=np.int64).tolist()
            for column in (src_asn, src_prefix, dest_prefix)))),
            dtype=np.int64).reshape(-1, 2)

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
        src_asn: np.ndarray,
        src_metro: Sequence[str],
        src_prefix: np.ndarray,
        dest_prefix: np.ndarray,
        state: AdvertisementState,
        drifted: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, ...]:
        """Each flow's bytes over peering links, flows given as aligned
        columns; a *row* is a position in them.  ``drifted`` is each
        row's (minor, major) drift on the day resolved, an ``(n, 2)``
        bool column (``day >= shift_days``, :meth:`shift_days`); None
        resolves without drift.  Seven arrays, aligned in three groups:
        ``(rows, links, fracs)`` the shares, rows ascending, a row's by
        descending fraction then link (none for a row with no route: its
        bytes are lost); ``(footprint_rows, footprint_asns)`` every AS a
        row's walk read, in walk order, repeats kept; ``(pool_rows,
        pool_links)`` the links of every pool it ranked.  Raises
        ``ValueError`` for a flow from the WAN's own AS."""
        src_asn = np.asarray(src_asn, dtype=np.int64)
        src_prefix = np.asarray(src_prefix, dtype=np.int64)
        dest_prefix = np.asarray(dest_prefix, dtype=np.int64)
        if (src_asn == self.wan.asn).any():
            raise ValueError("internal WAN traffic has no ingress link")
        metro = self._metro_codes(src_metro)
        n = len(src_asn)
        if not n:
            none = np.zeros(0, dtype=np.int64)
            return (none, none, np.zeros(0, dtype=np.float64)) + (none,) * 4

        # one routing table per removal key, stacked: a lane carries its
        # table's index
        prefixes, prefix_at = np.unique(dest_prefix, return_inverse=True)
        keys = [state.removal_key(prefix) for prefix in prefixes.tolist()]
        removals = tuple(dict.fromkeys(keys))
        tix = np.array([removals.index(key) for key in keys],
                       dtype=np.int64)[prefix_at]
        prepends = {i: dict(state.prepend_key(prefix))
                    for i, prefix in enumerate(prefixes.tolist())
                    if state.prepend_key(prefix)}
        # an AS without a route has no next-hops; a direct AS has a route
        tables, direct, hops, n_hops = self._stacked(removals)

        major = np.zeros(n, dtype=np.bool_)
        rotate = np.zeros(n, dtype=np.int64)
        if drifted is not None:
            major = drifted[:, 1]
            rotate = drifted[:, 0] + 2 * major.astype(np.int64)

        # -- origins: a source with usable links of its own delivers on
        # them; one without hands over to its ranked next-hops
        srow = self._rows(src_asn)
        known = np.flatnonzero(srow >= 0)
        t_k, s_k = tix[known], srow[known]
        own = np.zeros(n, dtype=np.bool_)
        own[known] = direct[t_k, s_k]
        cands = np.full((n, self._width), -1, dtype=np.int64)
        cands[known, :MAX_NEXTHOPS] = hops[t_k, s_k]
        # a pocketed source reads its pocket's providers too, delivers
        # only on the pocket's links, else via its providers with a route
        # (decided once per pocket and removal key)
        in_pocket = np.full(n, -1, dtype=np.int64)
        in_pocket[known] = self._pocket_of[s_k, metro[known]]
        pocketed = np.flatnonzero(in_pocket >= 0)
        _, first_at, which = np.unique(
            in_pocket[pocketed] * len(tables) + tix[pocketed],
            return_index=True, return_inverse=True)
        decided = np.full((len(first_at), 1 + 2 * self._width), -1,
                          dtype=np.int64)
        for j, i in enumerate(pocketed[first_at].tolist()):
            pocket, table = self._pockets[in_pocket[i]], tables[tix[i]]
            links, _ids = self._usable(int(src_asn[i]), removals[tix[i]])
            decided[j, 0] = any(l.metro in pocket.metros for l in links)
            chosen = [q for q in pocket.providers if q in table] or [
                q for q in cands[i].tolist() if q >= 0]
            decided[j, 1:1 + len(chosen)] = chosen
            decided[j, 1 + self._width:][:len(pocket.providers)] = \
                pocket.providers
        decided = decided[which]
        own[pocketed] = decided[:, 0] == 1
        cands[pocketed] = decided[:, 1:1 + self._width]
        provided = decided[:, 1 + self._width:]
        # (row, AS) reads keyed row * 3 + 0 (source), 1 + slot (a lane)
        read_keys = [3 * known, 3 * np.broadcast_to(
            pocketed[:, None], provided.shape)[provided >= 0]]
        read_asns = [src_asn[known], provided[provided >= 0]]

        # -- lanes, row-major: an own row's delivery at its source, a
        # walking row's one or two picks (a major shift moves the first
        # pick one further round)
        n_cands = (cands >= 0).sum(axis=1)
        walk = np.flatnonzero(~own & (n_cands > 0))
        c = n_cands[walk]
        two = c > 1
        first = rotation_columns(c, np.column_stack((
            src_asn[walk], src_prefix[walk], dest_prefix[walk],
            np.full(len(walk), 3, dtype=np.int64), cands[walk])),
            self.seed, lengths=4 + c) + (major[walk] & two)
        split = self.params.origin_split
        owners = np.flatnonzero(own)
        lane_row = np.concatenate((owners, walk, walk[two]))
        lane_slot = np.repeat(np.array([0, 0, 1], dtype=np.int64),
                              [len(owners), len(walk), int(two.sum())])
        lane_asn = np.concatenate((src_asn[owners], cands[walk, first % c],
                                   cands[walk, (first + 1) % c][two]))
        lane_weight = np.concatenate((
            np.ones(len(owners), dtype=np.float64),
            np.where(two, 1.0 - split, 1.0),
            np.full(int(two.sum()), split, dtype=np.float64)))
        # a row has one lane per slot: the keys are distinct
        order = np.argsort(2 * lane_row + lane_slot)
        lane_row, lane_slot = lane_row[order], lane_slot[order]
        lane_weight, lane_tix = lane_weight[order], tix[lane_row]
        at = self._rows(lane_asn[order])
        active = np.flatnonzero(~own[lane_row])
        stops = [np.flatnonzero(own[lane_row])]
        entry = metro[lane_row]
        entry[active] = self._entries(at[active], entry[active])

        # -- the walk: every live lane one AS hop per step
        for _ in range(self.params.max_walk_depth):
            if not active.size:
                break
            a, t = at[active], lane_tix[active]
            read_keys.append(3 * lane_row[active] + 1 + lane_slot[active])
            read_asns.append(self._topo.asns[a])
            here = direct[t, a]
            stops.append(active[here])
            on = ~here & (n_hops[t, a] > 0)
            active, a, t = active[on], a[on], t[on]
            if active.size:
                r, k = lane_row[active], n_hops[t, a]
                pick = rotation_columns(k, np.column_stack((
                    self._topo.asns[a], src_prefix[r], dest_prefix[r],
                    np.full(len(r), 5, dtype=np.int64), hops[t, a])),
                    self.seed, lengths=4 + k)
                at[active] = self._rows(hops[t, a, pick])
                entry[active] = self._entries(at[active], entry[active])

        # -- deliveries, in lane order; a row that delivered no weight
        # delivered nothing
        done = np.sort(np.concatenate(stops))
        delivered = np.bincount(lane_row[done], weights=lane_weight[done],
                                minlength=n)
        done = done[delivered[lane_row[done]] > 0.0]
        d_row, d_weight = lane_row[done], lane_weight[done]
        d_as, d_entry = at[done], entry[done]
        d_pocket = np.where(own[d_row], in_pocket[d_row], -1)
        # a pool is ranked once per (removal key, AS, entry metro,
        # pocket), and per row under TE, whose compliance is per flow
        te = np.zeros(len(prefixes), dtype=np.bool_)
        te[list(prepends)] = True
        te = te[prefix_at[d_row]]
        _, first_at, pool_of = np.unique(np.where(te, d_row, -1) + (n + 1) * (
            ((tix[d_row] * self._topo.n + d_as) * len(self._metro_names)
             + d_entry) * (len(self._pockets) + 1) + d_pocket + 1),
            return_index=True, return_inverse=True)
        pools: List[Tuple[int, ...]] = []
        for row, asn, code, pocket in zip(
                d_row[first_at].tolist(), d_as[first_at].tolist(),
                d_entry[first_at].tolist(), d_pocket[first_at].tolist()):
            peer = int(self._topo.asns[asn])
            removed, te_hint = removals[tix[row]], prepends.get(prefix_at[row])
            # without TE a pool is fixed by the AS, the entry metro, the
            # pocket and which of the AS's links are removed
            key = (asn, code, pocket, removed.intersection(
                self._link_ids_by_peer.get(peer, ())))
            # (TE compliance is per flow: a prepended pool is ranked
            # afresh; TE prefixes are rare, 0.7 % in the paper's network)
            pool = None if te_hint else self._ranked_pools.get(key)
            if pool is None:
                links, _ids = self._usable(peer, removed)
                if pocket >= 0:
                    metros = self._pockets[pocket].metros
                    links = [l for l in links if l.metro in metros]
                pool = self._pool(links, self._metro_names[code],
                                  int(src_prefix[row]),
                                  int(dest_prefix[row]), te_hint)
                if not te_hint:
                    self._ranked_pools[key] = pool
            pools.append(pool)
        splits = self._splits(pools, pool_of, src_prefix[d_row],
                              dest_prefix[d_row], rotate[d_row])

        # -- shares: per (row, link), summed in lane order
        links3 = splits[:, :3].astype(np.int64)
        held = links3 >= 0
        s_rows = np.broadcast_to(d_row[:, None], held.shape)[held]
        s_links = links3[held]
        _, first_at, group = np.unique(
            s_rows * (int(s_links.max(initial=0)) + 1) + s_links,
            return_index=True, return_inverse=True)
        # bincount adds in input order: each sum is the dict walk's
        sums = np.bincount(group, minlength=len(first_at),
                           weights=(splits[:, 3:] * d_weight[:, None])[held])
        s_rows, s_links = s_rows[first_at], s_links[first_at]
        scale = delivered[s_rows]
        s_fracs = np.where(scale < 1.0, sums / scale, sums)
        # by row, then descending fraction, then link: the shares come
        # by (row, link), so fraction ranks make one distinct int key
        _, rank = np.unique(-s_fracs, return_inverse=True)
        by_share = np.argsort((s_rows * (len(s_fracs) + 1) + rank)
                              * (int(s_links.max(initial=0)) + 1) + s_links)

        reads = np.concatenate(read_keys)
        by_read = np.argsort(reads, kind="stable")
        width = self.params.candidate_pool_size
        pooled = np.array([pool + (-1,) * (width - len(pool))
                           for pool in pools], dtype=np.int64).reshape(
            -1, width)[pool_of]
        return (s_rows[by_share], s_links[by_share], s_fracs[by_share],
                reads[by_read] // 3, np.concatenate(read_asns)[by_read],
                np.broadcast_to(d_row[:, None], pooled.shape)[pooled >= 0],
                pooled[pooled >= 0])

    def _metro_codes(self, names: Sequence[str]) -> np.ndarray:
        """Codes of metro names; raises ``KeyError`` for an unknown one."""
        names = np.asarray(names, dtype=str)
        at = np.minimum(np.searchsorted(self._metros_sorted, names),
                        len(self._metros_sorted) - 1)
        unknown = self._metros_sorted[at] != names
        if unknown.any():
            raise KeyError(str(names[unknown][0]))
        return self._metro_order[at]

    def _rows(self, asns: np.ndarray) -> np.ndarray:
        """Dense graph rows of ``asns`` (-1: not in the graph)."""
        at = np.minimum(np.searchsorted(self._asns_sorted, asns),
                        len(self._asns_sorted) - 1)
        return np.where(self._asns_sorted[at] == asns,
                        self._asn_order[at], -1).astype(np.int64)

    def _entries(self, rows: np.ndarray, metros: np.ndarray) -> np.ndarray:
        """The metro code where traffic from metro ``metros`` enters AS
        row ``rows``: the nearest of its footprint, ties by name."""
        found = self._entry_of[rows, metros]
        missing = np.flatnonzero(found < 0)
        for row, code in dict.fromkeys(zip(rows[missing].tolist(),
                                           metros[missing].tolist())):
            footprint = self.graph.node(int(self._topo.asns[row])).footprint
            self._entry_of[row, code] = self._metro_code[
                self.graph.metros.nearest(self._metro_names[code], footprint)]
        return self._entry_of[rows, metros] if missing.size else found

    def _splits(self, pools: List[Tuple[int, ...]], pool_of: np.ndarray,
                src_prefix: np.ndarray, dest_prefix: np.ndarray,
                rotate: np.ndarray) -> np.ndarray:
        """Each delivery's hot-potato split, an ``(n, 6)`` array (see
        ``_split_memo``), from the memo or computed.  A weighted shuffle
        (Efraimidis-Spirakis, geometric weights by distance rank) orders
        the pool per flow, biased toward the nearest exit, and the shares
        [p, (1-p)w, (1-p)(1-w)] go to the first three links.  The draws
        are keyed by the pool's membership: withdrawing a member re-draws
        the whole assignment among the survivors, deterministic yet
        uncorrelated with the ranking before.  The key ``u ** (1/weight)``
        and p stay python floats: ``np.power`` may round differently."""
        keys = list(zip(map(pools.__getitem__, pool_of.tolist()),
                        src_prefix.tolist(), dest_prefix.tolist(),
                        rotate.tolist()))
        found = self._split_memo.get_many(keys)
        # a key missed twice in one call is computed once
        todo = list(dict.fromkeys(key for key, split in zip(keys, found)
                                  if split is None))
        if todo:
            blob = self._draw_splits(todo)
            computed = {key: blob[at:at + 48]
                        for key, at in zip(todo, range(0, len(blob), 48))}
            for key, split in computed.items():
                self._split_memo[key] = split
            found = [computed[key] if split is None else split
                     for key, split in zip(keys, found)]
        return np.frombuffer(b"".join(found), dtype=np.float64).reshape(
            len(keys), 6)

    def _draw_splits(self, todo: List[Tuple[Any, ...]]) -> bytes:
        """The splits of ``todo``'s ``_split_memo`` keys, 48 bytes each,
        in order (see :meth:`_splits`)."""
        sizes = np.array([len(key[0]) for key in todo], dtype=np.int64)
        member_of = np.repeat(np.arange(len(todo), dtype=np.int64),
                              sizes)
        starts = np.cumsum(sizes) - sizes
        rank = np.arange(len(member_of), dtype=np.int64) - starts[
            member_of]
        links = np.array([link for key in todo for link in key[0]],
                         dtype=np.int64)
        # a pool's membership folds into one hash base, and each
        # member's draw is one mixing round more
        base = np.full((len(todo), 1 + int(sizes.max())), 17,
                       dtype=np.int64)
        base[member_of, 1 + rank] = links
        flows = np.array([key[1:] for key in todo], dtype=np.int64)
        draws = unit_columns(
            np.column_stack((flows[member_of, :2], links)),
            mix64_columns(base, self.seed, 1 + sizes)[member_of])
        params = self.params
        exponent = np.array([1.0 / params.locality ** r
                             for r in range(int(sizes.max()))],
                            dtype=np.float64)
        shuffle = -np.array(list(map(
            pow, np.maximum(draws, 1e-12).tolist(),
            exponent[rank].tolist())), dtype=np.float64)
        # by pool, then shuffle key, then link: shuffle ranks make one
        # distinct int key
        _, place = np.unique(shuffle, return_inverse=True)
        ordered = links[np.argsort(
            (member_of * (len(shuffle) + 1) + place)
            * (int(links.max()) + 1) + links)]
        # the first three once a drifted flow's order is rotated
        first = np.arange(3, dtype=np.int64)
        held = first < sizes[:, None]
        take = ordered[starts[:, None]
                       + (first + flows[:, 2:]) % sizes[:, None]]
        new = [flow for flow in dict.fromkeys(key[1:3] for key in todo)
               if flow not in self._p_cache]
        if new:
            u = unit_columns(np.column_stack((
                np.array(new, dtype=np.int64).reshape(-1, 2),
                np.full(len(new), 19, dtype=np.int64))), self.seed)
            self._p_cache.update(zip(new, (
                params.primary_share_lo
                + (params.primary_share_hi - params.primary_share_lo)
                * (1.0 - np.array(list(map(pow, u.tolist(), repeat(
                    params.primary_share_skew, len(new)))),
                    dtype=np.float64))).tolist()))
        p = np.array([self._p_cache[key[1:3]] for key in todo],
                     dtype=np.float64)
        sw = params.secondary_weight
        raw = np.column_stack((p, (1.0 - p) * sw,
                               (1.0 - p) * (1.0 - sw)))
        # the taken weights summed in order, as a python ``sum``
        total = p + np.where(held[:, 1], raw[:, 1], 0.0) + np.where(
            held[:, 2], raw[:, 2], 0.0)
        return np.column_stack((np.where(held, take, -1), np.where(
            held, raw / total[:, None], 0.0))).tobytes()

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

    def _pool(
        self,
        links: Sequence[PeeringLink],
        entry_metro: str,
        src_prefix: int,
        dest_prefix: int,
        prepends: Optional[Dict[int, int]] = None,
    ) -> Tuple[int, ...]:
        """The candidate pool of a delivering AS's links: the nearest
        ``candidate_pool_size`` within ``reroute_radius_km`` of the
        closest exit, nearest first."""
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

        ranked = sorted(
            links,
            key=lambda l: (effective_distance(l), l.link_id),
        )
        d0 = effective_distance(ranked[0])
        radius = d0 + self.params.reroute_radius_km
        return tuple(
            l.link_id for l in ranked[: self.params.candidate_pool_size]
            if effective_distance(l) <= radius
        )

    # -- statistics -----------------------------------------------------------

    def cache_stats(self) -> Dict[str, int]:
        """Occupancy of every cache plus hot-path hit/miss counters
        (``share_*``: the split memo)."""
        return {
            "share_entries": len(self._split_memo),
            "entry_metro_entries": int(np.count_nonzero(self._entry_of >= 0)),
            "touched_entries": len(self._touched_cache),
            "drift_entries": len(self._drift_cache),
            "ranked_pool_entries": len(self._ranked_pools),
            "primary_share_entries": len(self._p_cache),
            "tables_by_removed": len(self._table_by_removed),
            "tables_by_seeded": len(self._table_by_dark),
            "stack_entries": len(self._stacks),
            "share_hits": self._split_memo.hits,
            "share_misses": self._split_memo.misses,
            "share_evictions": self._split_memo.evictions,
            "table_hits": self._table_by_removed.hits,
            "table_misses": self._table_by_removed.misses,
            "table_seeded_hits": self._table_by_dark.hits,
            "table_seeded_misses": self._table_by_dark.misses,
            "table_evictions": (self._table_by_removed.evictions
                                + self._table_by_dark.evictions),
            "table_full_rebuilds": self._table_full_rebuilds,
            "stack_hits": self._stacks.hits,
            "stack_misses": self._stacks.misses,
            # no table is repaired; the benchmark's churn workload still
            # reads this key (benchmarks/e2e/tipsybench/churn.py)
            "table_incremental_updates": 0,
            "ranked_pool_hits": self._ranked_pools.hits,
            "ranked_pool_misses": self._ranked_pools.misses,
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
        gauges["share_hit_rate"] = self._split_memo.hit_rate
        gauges["table_hit_rate"] = self._table_by_removed.hit_rate
        gauges["stack_hit_rate"] = self._stacks.hit_rate
        obs.set_gauges(gauges, prefix="bgp.simulator.")
