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
not as a lookup per row.

A call pays per row, not per call, for what it can keep:

- Routing tables are cached by the set of peers that go dark (those a
  removal set leaves with no link: each such set names one seeded set),
  a miss computed from scratch (``compute_routing_table``, over a
  policy-bias column built once).  The walk reads each table's
  ``direct`` and ``nexthops`` columns from one frame that holds every
  table once (``_FRAME_SLOTS``), not a stack built per call.
- A candidate pool without TE is kept per (AS, entry metro, pocket, the
  AS's removed links) (``_POOL_SLOTS``), as the id of the pool, interned.
- The split past the candidate pool, the one per-flow memo, is keyed by
  one int per delivering lane, packed from (pool id, src prefix, dest
  prefix, rotation) at widths fixed here (``_POOL_BITS`` ...; an id past
  its width is refused), and its hits are gathered as one float array
  (``util.cache.ArrayLru``, bounded by
  ``SimulatorParams.share_cache_size``).
- Groupings of keys that span a small range (destination prefixes,
  pocket x table) are lookup tables, not ``np.unique``; the hashes
  that fold an AS first start from a seed folded once per AS.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import (Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

import numpy as np

from ..obs import runtime as obs
from ..topology.asgraph import ASGraph, Pocket
from ..topology.wan import CloudWAN, PeeringLink
from ..util.cache import ArrayLru, LruDict
from ..util.hashing import (folded_seed, geometric_day_columns,
                            mix64_columns, rotation_columns, unit,
                            unit_columns)
from .propagation import (MAX_NEXTHOPS, RoutingTable, compute_routing_table,
                          default_bias)
from .state import AdvertisementState

#: routing tables the walk's frame holds at once
_FRAME_SLOTS = 256
#: candidate pools kept by (AS, entry metro, pocket, its removed links)
_POOL_SLOTS = 1 << 16
#: the split memo's key is one int, its fields high to low: interned
#: pool id, src prefix, dest prefix, rotation; an id past its field's
#: width is refused (``ValueError``)
_POOL_BITS, _SRC_BITS, _DEST_BITS, _ROTATION_BITS = 20, 27, 14, 2


def _grouped(codes: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` of ints in ``[0,
    size)``, by lookup table: the distinct codes ascending, and each
    code's place among them."""
    present = np.zeros(size, dtype=np.bool_)
    present[codes] = True
    distinct = np.flatnonzero(present)
    place = np.empty(size, dtype=np.int64)
    place[distinct] = np.arange(len(distinct), dtype=np.int64)
    return distinct, place[codes]


def _unique_index(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True, return_inverse=True)[1:]``:
    where each distinct key first occurs, by ascending key, and each
    key's place among the distinct ones."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.empty(len(keys), dtype=np.bool_)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    place = np.empty(len(keys), dtype=np.int64)
    place[order] = np.cumsum(new) - 1
    return order[new], place


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
        self._link_ids_by_peer: Dict[int, FrozenSet[int]] = {
            asn: frozenset(l.link_id for l in links)
            for asn, links in self._links_by_peer.items()
        }
        self._peer_asns = frozenset(a for a in wan.peer_asns if a in graph)
        # link id -> its peer, for the peers of the AS graph
        self._peer_of_link = {
            link_id: asn for asn, ids in self._link_ids_by_peer.items()
            if asn in self._peer_asns for link_id in ids}
        p = self.params
        # keyed by the peers that go dark (lose every link): the seeded
        # set is the rest, so each key names one seeded set
        self._tables: LruDict[FrozenSet[int], RoutingTable] = \
            LruDict(p.table_cache_size)
        # the split memo: (pool id, src prefix, dest prefix, rotation),
        # packed into one int (``_POOL_BITS`` ...), -> the split as six
        # floats: three links, then their fractions (-1 and 0.0 past the
        # pool's size), so a call's splits are one look-up and one gather
        self._split_memo = ArrayLru(p.share_cache_size, 6)
        # interned candidate pools: pool -> id, and by id its links (-1
        # past its size) and its size
        self._pool_ids: Dict[Tuple[int, ...], int] = {}
        self._pool_links = np.full((0, p.candidate_pool_size), -1,
                                   dtype=np.int64)
        self._pool_sizes = np.zeros(0, dtype=np.int64)
        # (AS row, entry metro code, pocket, the AS's removed links) ->
        # the id of the candidate pool without TE
        self._ranked_pools: LruDict[Tuple[int, int, int, FrozenSet[int]],
                                    int] = LruDict(_POOL_SLOTS)
        # the walk's frame: dense AS rows (those of every routing table),
        # metro codes, each (AS row, metro)'s pocket (the AS's first that
        # holds the metro, -1: none) and entry metro (-1 until first used)
        self._topo = topo = graph.dense()
        # each AS row's hash seed once its ASN is folded: the walk's
        # hashes all fold an AS first
        self._as_seed = folded_seed(topo.asns[:, None], seed)
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
        # per pocket: its AS's row, the ids of the AS's links in the
        # pocket's metros, and its providers' rows (-1: not in the graph)
        self._pocket_facts: List[Tuple[int, FrozenSet[int],
                                       np.ndarray]] = []
        for node in graph.nodes():
            for pocket in reversed(node.pockets):
                self._pocket_of[topo.index[node.asn], [
                    self._metro_code[m] for m in sorted(pocket.metros)]] = \
                    len(self._pockets)
                self._pockets.append(pocket)
                self._pocket_facts.append((
                    topo.index[node.asn],
                    frozenset(l.link_id for l in self._links_by_peer.get(
                        node.asn, ()) if l.metro in pocket.metros),
                    np.array([topo.index.get(q, -1)
                              for q in pocket.providers], dtype=np.int64)))
        self._width = max([MAX_NEXTHOPS] + [len(p.providers)
                                            for p in self._pockets])
        self._entry_of = np.full(self._pocket_of.shape, -1, dtype=np.int64)
        # the walk's frame: per routing table (seeded set -> frame row)
        # its ``direct`` and ``nexthops`` columns and each AS's count of
        # next-hops; a lane reads row ``[frame row, AS row]``
        self._frame: Dict[FrozenSet[int], int] = {}
        self._direct = np.zeros((0, topo.n), dtype=np.bool_)
        self._hops = np.zeros((0, topo.n, MAX_NEXTHOPS), dtype=np.int64)
        self._n_hops = np.zeros((0, topo.n), dtype=np.int64)

    # -- routing tables -----------------------------------------------------

    def seeded_for(self, removed: FrozenSet[int]) -> FrozenSet[int]:
        """Peers that keep >= 1 available link once ``removed`` is gone."""
        return self._peer_asns - self._dark_peers(removed)

    def _dark_peers(self, removed: FrozenSet[int]) -> FrozenSet[int]:
        """Peers (of the AS graph) that lose every link once ``removed``
        is gone; ids the WAN does not have are ignored."""
        ids_of = self._link_ids_by_peer
        return frozenset(
            asn for asn in set(map(self._peer_of_link.get, removed))
            if asn is not None and ids_of[asn] <= removed)

    def _check_graph(self) -> None:
        if self.graph.dense() is not self._topo:
            raise RuntimeError("the AS graph changed after the simulator "
                               "was built")

    def routing_table(self, removed: FrozenSet[int]) -> RoutingTable:
        """AS-level routing table for a set of removed links (cached per
        seeded-neighbor set, keyed by the peers that go dark; a miss
        computes the table).  Raises ``RuntimeError`` once the AS graph
        has changed after the simulator was built."""
        self._check_graph()
        dark = self._dark_peers(removed)
        table = self._tables.get(dark)
        if table is None:
            table = self._tables[dark] = compute_routing_table(
                self.graph, self._peer_asns - dark, self._bias)
        return table

    def touched(self, before: FrozenSet[int], after: FrozenSet[int]
                ) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """The footprint rule, as (ASes, links): a resolution made under
        ``before`` stands under ``after`` unless its footprint meets the
        ASes or its pools meet the links.

        The ASes are those whose route differs between the two tables
        and the owners of the *restored* links: any pool of the owner may
        admit a link that comes back.  The links are the *removed* ones:
        a link outside a pool ranks after every member or beyond the
        radius, so deleting it reorders nothing before it; the nearest
        link is always in the pool (pocket-filtered and TE-ranked alike),
        so no link list empties without a pool member going; and a peer
        losing its last link changes the tables."""
        return (frozenset(
            self.wan.link(l).peer_asn for l in before - after
        ) | self.routing_table(before).changed_asns(
            self.routing_table(after)), after - before)

    def _framed(self, tables: Tuple[RoutingTable, ...]) -> np.ndarray:
        """Each table's row of the walk's frame (``_direct``, ``_hops``,
        ``_n_hops``), its columns copied in on first use.  A frame that
        cannot take a call's new tables starts afresh: it holds at most
        ``_FRAME_SLOTS`` tables, or one call's."""
        frame = self._frame
        rows = list(map(frame.get, [table.seeded for table in tables]))
        if None in rows:
            new = {table.seeded: table for table in tables
                   if table.seeded not in frame}
            if len(frame) + len(new) > _FRAME_SLOTS:
                frame.clear()
                new = {table.seeded: table for table in tables}
            if len(frame) + len(new) > len(self._n_hops):
                size = max(len(frame) + len(new), 2 * len(self._n_hops))
                for name in ("_direct", "_hops", "_n_hops"):
                    old = getattr(self, name)
                    grown = np.zeros((size,) + old.shape[1:],
                                     dtype=old.dtype)
                    grown[:len(old)] = old
                    setattr(self, name, grown)
            for seeded, table in new.items():
                row = frame[seeded] = len(frame)
                self._direct[row] = table.direct
                self._hops[row] = table.nexthops
                self._n_hops[row] = (table.nexthops >= 0).sum(axis=1)
            rows = [frame[table.seeded] for table in tables]
        return np.array(rows, dtype=np.int64)

    def as_distance(self, asn: int) -> Optional[int]:
        """AS-hop distance to the WAN under full availability (Figure 2)."""
        return self.routing_table(frozenset()).distance(asn)

    # -- drift ----------------------------------------------------------------

    def shift_days(self, src_asn: np.ndarray, src_prefix: np.ndarray,
                   dest_prefix: np.ndarray) -> np.ndarray:
        """Each flow's (minor, major) shift day, flows given as aligned
        columns, an ``(n, 2)`` ``int64`` array: ``geometric_day`` of the
        flow and a salt (11, 13); ``day >= shift_days(...)`` is the
        ``drifted`` column :meth:`resolve_shares` takes."""
        flows = np.zeros((len(src_asn), 4), dtype=np.int64)
        flows[:, :3] = np.column_stack((src_asn, src_prefix, dest_prefix))
        days = []
        for p, salt in ((self.params.minor_drift_daily, 11),
                        (self.params.major_drift_daily, 13)):
            flows[:, 3] = salt
            days.append(geometric_day_columns(p, flows, self.seed))
        return np.column_stack(days)

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
        # (a negative id has high bits set too)
        if ((src_prefix >> _SRC_BITS) | (dest_prefix >> _DEST_BITS)).any():
            raise ValueError(f"src / dest prefix ids must lie in [0, "
                             f"2**{_SRC_BITS}) / [0, 2**{_DEST_BITS})")

        # one routing table per removal key: a row carries its table's
        # index and the table's row of the frame.  A prefix no withdrawal
        # or prepend touched has the links down as its removal key, and
        # no prepends
        prefixes, prefix_at = _grouped(dest_prefix,
                                       int(dest_prefix.max()) + 1)
        outages, touched = state.link_outages, state.touched_prefixes()
        index: Dict[FrozenSet[int], int] = {}
        at_prefix: List[int] = []
        prepends: Dict[int, Dict[int, int]] = {}
        for i, prefix in enumerate(prefixes.tolist()):
            key = outages
            if prefix in touched:
                key = state.removal_key(prefix)
                te_key = state.prepend_key(prefix)
                if te_key:
                    prepends[i] = dict(te_key)
            at_prefix.append(index.setdefault(key, len(index)))
        removals = tuple(index)
        tix = np.array(at_prefix, dtype=np.int64)[prefix_at]
        tables = tuple(map(self.routing_table, removals))
        row_of = self._framed(tables)[tix]
        # an AS without a route has no next-hops; a direct AS has a route
        direct, hops, n_hops = self._direct, self._hops, self._n_hops

        major = np.zeros(n, dtype=np.bool_)
        rotate = np.zeros(n, dtype=np.int64)
        if drifted is not None:
            major = drifted[:, 1]
            rotate = drifted[:, 0] + 2 * major.astype(np.int64)

        # -- origins: a source with usable links of its own delivers on
        # them; one without hands over to its ranked next-hops
        srow = self._rows(src_asn)
        known = np.flatnonzero(srow >= 0)
        t_k, s_k = row_of[known], srow[known]
        own = np.zeros(n, dtype=np.bool_)
        own[known] = direct[t_k, s_k]
        cands = np.full((n, self._width), -1, dtype=np.int64)
        cands[known, :MAX_NEXTHOPS] = hops[t_k, s_k]
        # a pocketed source reads its pocket's providers too, delivers
        # only on the pocket's links, else via its providers with a route
        # (``_decide``, once per pocket and removal key of the call)
        in_pocket = np.full(n, -1, dtype=np.int64)
        in_pocket[known] = self._pocket_of[s_k, metro[known]]
        pocketed = np.flatnonzero(in_pocket >= 0)
        groups, which = _grouped(
            in_pocket[pocketed] * len(tables) + tix[pocketed],
            len(self._pockets) * len(tables))
        decided = np.array(
            [self._decide(pocket, removals[t], tables[t])
             for pocket, t in map(divmod, groups.tolist(),
                                  repeat(len(tables)))],
            dtype=np.int64).reshape(-1, 1 + 2 * self._width)[which]
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
            src_prefix[walk], dest_prefix[walk],
            np.full(len(walk), 3, dtype=np.int64), cands[walk])),
            self._as_seed[srow[walk]], lengths=3 + c) + (major[walk] & two)
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
        lane_weight, lane_tix = lane_weight[order], row_of[lane_row]
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
                    src_prefix[r], dest_prefix[r],
                    np.full(len(r), 5, dtype=np.int64), hops[t, a])),
                    self._as_seed[a], lengths=3 + k)
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
        first_at, pool_of = _unique_index(np.where(te, d_row, -1) + (n + 1) * (
            ((tix[d_row] * self._topo.n + d_as) * len(self._metro_names)
             + d_entry) * (len(self._pockets) + 1) + d_pocket + 1))
        pool_ids: List[int] = []
        for row, as_row, peer, code, pocket in zip(
                d_row[first_at].tolist(), d_as[first_at].tolist(),
                self._topo.asns[d_as[first_at]].tolist(),
                d_entry[first_at].tolist(), d_pocket[first_at].tolist()):
            removed, te_hint = removals[tix[row]], prepends.get(prefix_at[row])
            # without TE a pool is fixed by the AS, the entry metro, the
            # pocket and which of the AS's links are removed
            key = (as_row, code, pocket, removed.intersection(
                self._link_ids_by_peer.get(peer, ())))
            # (TE compliance is per flow: a prepended pool is ranked
            # afresh; TE prefixes are rare, 0.7 % in the paper's network)
            pool_id = None if te_hint else self._ranked_pools.get(key)
            if pool_id is None:
                links = [l for l in self._links_by_peer.get(peer, ())
                         if l.link_id not in removed]
                if pocket >= 0:
                    metros = self._pockets[pocket].metros
                    links = [l for l in links if l.metro in metros]
                pool_id = self._interned(self._pool(
                    links, self._metro_names[code], int(src_prefix[row]),
                    int(dest_prefix[row]), te_hint))
                if not te_hint:
                    self._ranked_pools[key] = pool_id
            pool_ids.append(pool_id)
        by_pool = np.array(pool_ids, dtype=np.int64)[pool_of]
        splits = self._splits(by_pool, src_prefix[d_row],
                              dest_prefix[d_row], rotate[d_row])

        # -- shares: per (row, link), summed in lane order
        links3 = splits[:, :3].astype(np.int64)
        held = links3 >= 0
        s_rows = np.broadcast_to(d_row[:, None], held.shape)[held]
        s_links = links3[held]
        first_at, group = _unique_index(
            s_rows * (int(s_links.max(initial=0)) + 1) + s_links)
        # bincount adds in input order: each sum is the dict walk's
        sums = np.bincount(group, minlength=len(first_at),
                           weights=(splits[:, 3:] * d_weight[:, None])[held])
        s_rows, s_links = s_rows[first_at], s_links[first_at]
        scale = delivered[s_rows]
        s_fracs = np.where(scale < 1.0, sums / scale, sums)
        # by row, then descending fraction, then link
        by_share = np.lexsort((s_links, -s_fracs, s_rows))

        reads = np.concatenate(read_keys)
        by_read = np.argsort(reads, kind="stable")
        pooled = self._pool_links[by_pool]
        return (s_rows[by_share], s_links[by_share], s_fracs[by_share],
                reads[by_read] // 3, np.concatenate(read_asns)[by_read],
                np.broadcast_to(d_row[:, None], pooled.shape)[pooled >= 0],
                pooled[pooled >= 0])

    def _decide(self, pocket: int, removed: FrozenSet[int],
                table: RoutingTable) -> Tuple[int, ...]:
        """A pocket's decision under removal key ``removed`` (whose table
        is ``table``): 1 if it delivers on its own links (those in its
        metros), else 0; the providers it hands over to (those with a
        route, else the AS's own next-hops); its providers (both -1
        padded to the walk's width)."""
        providers = self._pockets[pocket].providers
        row, links, rows = self._pocket_facts[pocket]
        routed = ((rows >= 0) & (table.dist[rows] >= 0)).tolist()
        chosen = [q for q, ok in zip(providers, routed) if ok] or [
            q for q in table.nexthops[row].tolist() if q >= 0]
        width = self._width
        return ((int(not links <= removed),)
                + tuple(chosen) + (-1,) * (width - len(chosen))
                + tuple(providers) + (-1,) * (width - len(providers)))

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

    def _interned(self, pool: Tuple[int, ...]) -> int:
        """The id of candidate pool ``pool``, ids counted up from 0; a
        ``ValueError`` past the split key's pool field."""
        pool_id = self._pool_ids.get(pool)
        if pool_id is None:
            pool_id = len(self._pool_ids)
            if pool_id >> _POOL_BITS:
                raise ValueError(f"more than 2**{_POOL_BITS} candidate "
                                 "pools")
            if pool_id == len(self._pool_sizes):
                grown = np.full((max(64, 2 * pool_id),
                                 self._pool_links.shape[1]), -1,
                                dtype=np.int64)
                grown[:pool_id] = self._pool_links
                self._pool_links = grown
                self._pool_sizes = np.resize(self._pool_sizes, len(grown))
            self._pool_links[pool_id, :len(pool)] = pool
            self._pool_sizes[pool_id] = len(pool)
            self._pool_ids[pool] = pool_id
        return pool_id

    def _splits(self, pool_ids: np.ndarray, src_prefix: np.ndarray,
                dest_prefix: np.ndarray, rotate: np.ndarray) -> np.ndarray:
        """Each delivery's hot-potato split, an ``(n, 6)`` array (see
        ``_split_memo``), from the memo or computed.  A weighted shuffle
        (Efraimidis-Spirakis, geometric weights by distance rank) orders
        the pool per flow, biased toward the nearest exit, and the shares
        [p, (1-p)w, (1-p)(1-w)] go to the first three links.  The draws
        are keyed by the pool's membership: withdrawing a member re-draws
        the whole assignment among the survivors, deterministic yet
        uncorrelated with the ranking before.  The key ``u ** (1/weight)``
        and p stay python floats: ``np.power`` may round differently."""
        keys = (((pool_ids << _SRC_BITS | src_prefix) << _DEST_BITS
                 | dest_prefix) << _ROTATION_BITS) | rotate
        splits, held = self._split_memo.get_many(keys)
        missed = np.flatnonzero(~held)
        if missed.size:
            # a key missed twice in one call is computed once
            at, again = _unique_index(keys[missed])
            todo = keys[missed[np.sort(at)]]
            drawn = self._draw_splits(todo)
            self._split_memo.put_many(todo, drawn)
            splits[missed] = drawn[np.argsort(np.argsort(at))[again]]
        return splits

    def _draw_splits(self, todo: np.ndarray) -> np.ndarray:
        """The splits of ``todo``'s ``_split_memo`` keys, an ``(n, 6)``
        array in order (see :meth:`_splits`)."""
        rotate = todo & ((1 << _ROTATION_BITS) - 1)
        todo = todo >> _ROTATION_BITS
        dest = todo & ((1 << _DEST_BITS) - 1)
        todo = todo >> _DEST_BITS
        src = todo & ((1 << _SRC_BITS) - 1)
        pool_ids = todo >> _SRC_BITS
        sizes = self._pool_sizes[pool_ids]
        member_of = np.repeat(np.arange(len(todo), dtype=np.int64), sizes)
        starts = np.cumsum(sizes) - sizes
        rank = np.arange(len(member_of), dtype=np.int64) - starts[
            member_of]
        pooled = self._pool_links[pool_ids]
        links = pooled[pooled >= 0]
        # a pool's membership folds into one hash base, and each
        # member's draw is one mixing round more
        widest = int(sizes.max())
        base = np.full((len(todo), 1 + widest), 17, dtype=np.int64)
        base[:, 1:] = pooled[:, :widest]
        draws = unit_columns(
            np.column_stack((src[member_of], dest[member_of], links)),
            mix64_columns(base, self.seed, 1 + sizes)[member_of])
        params = self.params
        exponent = np.array([1.0 / params.locality ** r
                             for r in range(widest)], dtype=np.float64)
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
                       + (first + rotate[:, None]) % sizes[:, None]]
        u = unit_columns(np.column_stack((
            src, dest, np.full(len(todo), 19, dtype=np.int64))), self.seed)
        p = params.primary_share_lo + (
            params.primary_share_hi - params.primary_share_lo) * (
            1.0 - np.array(list(map(pow, u.tolist(), repeat(
                params.primary_share_skew, len(todo)))), dtype=np.float64))
        sw = params.secondary_weight
        raw = np.column_stack((p, (1.0 - p) * sw,
                               (1.0 - p) * (1.0 - sw)))
        # the taken weights summed in order, as a python ``sum``
        total = p + np.where(held[:, 1], raw[:, 1], 0.0) + np.where(
            held[:, 2], raw[:, 2], 0.0)
        return np.column_stack((np.where(held, take, -1), np.where(
            held, raw / total[:, None], 0.0)))

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
        closest exit, nearest first (ties by link id)."""
        metros, params = self.graph.metros, self.params
        ranked = []
        for link in links:
            distance = metros.distance_km(entry_metro, link.metro)
            times = prepends.get(link.link_id) if prepends else None
            # the hint is honoured per (delivering link, flow) only with
            # te_compliance probability
            if times and unit(link.link_id, src_prefix, dest_prefix, 23,
                              seed=self.seed) < params.te_compliance:
                distance += times * params.te_prepend_km
            ranked.append((distance, link.link_id))
        ranked.sort()
        radius = ranked[0][0] + params.reroute_radius_km
        return tuple(link_id for distance, link_id
                     in ranked[:params.candidate_pool_size]
                     if distance <= radius)

    # -- statistics -----------------------------------------------------------

    def cache_stats(self) -> Dict[str, int]:
        """Occupancy of every cache plus hot-path hit/miss counters
        (``share_*``: the split memo)."""
        return {
            "share_entries": len(self._split_memo),
            "entry_metro_entries": int(np.count_nonzero(self._entry_of >= 0)),
            "ranked_pool_entries": len(self._ranked_pools),
            "tables_by_seeded": len(self._tables),
            "share_hits": self._split_memo.hits,
            "share_misses": self._split_memo.misses,
            "share_evictions": self._split_memo.evictions,
            "table_hits": self._tables.hits,
            "table_misses": self._tables.misses,
            "table_evictions": self._tables.evictions,
            # every miss computes a table
            "table_full_rebuilds": self._tables.misses,
            # no table is repaired; the benchmark's churn workload still
            # reads this key (benchmarks/e2e/tipsybench/churn.py)
            "table_incremental_updates": 0,
            "ranked_pool_hits": self._ranked_pools.hits,
            "ranked_pool_misses": self._ranked_pools.misses,
            "interned_pools": len(self._pool_ids),
            "frame_tables": len(self._frame),
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
        gauges["table_hit_rate"] = self._tables.hit_rate
        obs.set_gauges(gauges, prefix="bgp.simulator.")
