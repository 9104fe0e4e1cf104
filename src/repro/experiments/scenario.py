"""End-to-end scenario: build the synthetic world, stream telemetry.

A :class:`Scenario` wires together every substrate — topology, WAN, BGP
simulator, traffic, outage schedule, telemetry, pipeline encoders — and
streams hour-by-hour telemetry columns.  It is the single entry point the
examples, the evaluation runner and the benchmarks all share.

The streaming fast path is columnar: per hour it produces aligned numpy
arrays (flow row, link id, true bytes, sampled bytes), the samples drawn
when first read, so an hour only the ground truth reads (a CMS probe's)
draws none.  This is the scaled-down stand-in for the paper's Spark
aggregation pipeline (§4.2-4.3); the record-level pipeline classes in
:mod:`repro.pipeline` expose the same data as :class:`AggRecord` streams
when fidelity matters more than speed.

Every flow's link shares under one (day, advertisement content) are an
*expansion*, kept by content in a small LRU.  The content holds the
links down apart from the prefixes a withdrawal or a prepend touched,
so a miss compares contents over the touched prefixes only, once per
cached expansion (``_changes``), and ranks the cached expansions by
counts alone (``_estimate``: count arrays, and the rows whose drift
flag flips kept per day pair).  It re-resolves only the rows the
change from the cheapest can reach (``_stale_rows``, reusing that
comparison), with the drift shift days the scenario holds as a column,
and interleaves them with the rows kept by ``np.searchsorted``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (Dict, FrozenSet, Iterator, List, NamedTuple, Optional,
                    Tuple)

import numpy as np

from ..bgp.simulator import IngressSimulator, SimulatorParams
from ..bgp.state import AdvertisementState
from ..cms.mitigation import TrafficSample
from ..obs import runtime as obs
from ..pipeline.aggregation import HourlyAggregator
from ..pipeline.encoding import EncoderSet
from ..pipeline.outages import Outage, OutageParams, schedule_outages
from ..pipeline.records import AggColumns, FlowContext, UNKNOWN_LOCATION
from ..telemetry.bmp import BmpFeed
from ..telemetry.geoip import GeoIPDatabase
from ..telemetry.ipfix import IpfixExporter, IpfixRecord
from ..telemetry.metadata import MetadataStore
from ..topology.asgraph import TopologyParams, generate_as_graph
from ..topology.geography import MetroCatalog
from ..topology.wan import WANParams, generate_wan
from ..traffic.generator import TrafficGenerator, TrafficParams
from ..traffic.prefixes import PrefixUniverse
from ..util.cache import LruDict, interleaved, spliced

#: expansions kept, by content: a CMS probe alternates between the live
#: state and one with a link down, an hour boundary adds one or two more
_EXPANSION_SLOTS = 8

#: what an expansion depends on: (day, the links down, and per prefix a
#: withdrawal or a prepend touched, ascending, (prefix, removal key,
#: prepend key)); every other prefix's removal key is the links down
_Touched = Tuple[Tuple[int, FrozenSet[int], Tuple[Tuple[int, int], ...]],
                 ...]
_Content = Tuple[int, FrozenSet[int], _Touched]
#: destination prefixes by the (old, new) removal sets they moved between
_Moved = Dict[Tuple[FrozenSet[int], FrozenSet[int]], List[int]]
#: day pairs whose drift flips are counted: a run crosses a day at a time
_FLIP_SLOTS = 16


class _Changes(NamedTuple):
    """What differs between an expansion and a content (``_changes``):
    everything ``_estimate`` counts and ``_stale_rows`` marks."""

    #: (the expansion's day, the content's day)
    days: Tuple[int, int]
    #: prefixes whose prepends changed
    prepended: List[int]
    #: prefixes either content touched, by the removal sets they moved
    #: between (in ascending prefix order of each set's first prefix)
    moved: _Moved
    #: prefixes either content touched
    touched: FrozenSet[int]
    #: (old, new) links down when they changed, else None: every prefix
    #: neither content touched moved between them
    untouched: Optional[Tuple[FrozenSet[int], FrozenSet[int]]]


class HourColumns:
    """One hour of telemetry in columnar form (aligned arrays).

    ``sampled_bytes`` is drawn on first read and kept: the exporter's
    draw is seeded by (seed, hour) and runs over ``true_bytes``, so it
    is the same whenever it is read, and an hour only the ground truth
    reads (a CMS probe's) draws nothing."""

    __slots__ = ("hour", "flow_rows", "link_ids", "true_bytes",
                 "_exporter", "_sampled")

    def __init__(self, hour: int, flow_rows: np.ndarray,
                 link_ids: np.ndarray, true_bytes: np.ndarray,
                 exporter: IpfixExporter):
        self.hour = hour
        self.flow_rows = flow_rows    # index into scenario.traffic.flows
        self.link_ids = link_ids
        self.true_bytes = true_bytes  # ground truth (never shown to TIPSY)
        self._exporter = exporter
        self._sampled: Optional[np.ndarray] = None

    @property
    def sampled_bytes(self) -> np.ndarray:
        """IPFIX-sampled, scaled-up estimate of ``true_bytes``."""
        if self._sampled is None:
            self._sampled = self._exporter.sample_bytes(self.true_bytes,
                                                        self.hour)
        return self._sampled


class _Expansion(NamedTuple):
    """Every flow's link shares under one (day, advertisement content),
    as aligned arrays, plus what its resolutions read, which says what
    can change them (``IngressSimulator.touched``)."""

    content: _Content
    rows: np.ndarray
    links: np.ndarray
    fracs: np.ndarray
    # (flow row, AS code) pairs: the row's resolution read that AS
    # (``Scenario._as_codes``; the AS is ``Scenario._asns[code]``)
    footprint_rows: np.ndarray
    footprint_codes: np.ndarray
    # (flow row, link) pairs: a candidate pool of the row held that link
    pool_rows: np.ndarray
    pool_links: np.ndarray
    #: rows per AS code read and per pool link id: what ``_estimate``
    #: sums (``_rows_per``)
    rows_reading: np.ndarray
    rows_pooling: np.ndarray


def _rows_per(codes: np.ndarray, n: int) -> np.ndarray:
    """How many of an expansion's (row, value) pairs hold each of the
    ``n`` value codes."""
    return np.bincount(codes, minlength=n)


def _marked(values: np.ndarray, wanted: List[int], size: int) -> np.ndarray:
    """Which ``values`` (ints in ``[0, size)``) are ``wanted``: an
    ``np.isin`` by lookup table, without its fixed cost."""
    table = np.zeros(size, dtype=np.bool_)
    table[wanted] = True
    return table[values]


def _recount(counts: np.ndarray, dropped: np.ndarray,
             added: np.ndarray) -> np.ndarray:
    """``_rows_per`` of a derived expansion from its base's: ``counts``
    less the stale pairs' codes plus the new ones."""
    n = len(counts)
    return (counts - np.bincount(dropped, minlength=n)
            + np.bincount(added, minlength=n))


@dataclass
class ScenarioParams:
    """Complete configuration of a synthetic world."""

    seed: int = 0
    horizon_days: int = 28
    topology: TopologyParams = field(default_factory=TopologyParams)
    wan: WANParams = field(default_factory=WANParams)
    traffic: TrafficParams = field(default_factory=TrafficParams)
    outages: OutageParams = field(default_factory=OutageParams)
    simulator: SimulatorParams = field(default_factory=SimulatorParams)
    sampling_rate: int = 4096
    geoip_error_rate: float = 0.03

    @classmethod
    def small(cls, seed: int = 0, horizon_days: int = 10) -> "ScenarioParams":
        """A minutes-scale configuration for tests and quickstarts."""
        return cls(
            seed=seed,
            horizon_days=horizon_days,
            topology=TopologyParams(
                n_tier1=3, n_transit=10, n_access=24, n_cdn=3, n_stub=70),
            wan=WANParams(n_regions=6, n_dest_prefixes=24),
            traffic=TrafficParams(n_flows=900, horizon_days=horizon_days),
            outages=OutageParams(flaky_fraction=0.02),
        )

    @classmethod
    def medium(cls, seed: int = 0, horizon_days: int = 28) -> "ScenarioParams":
        """A mid-size configuration for sweep-style experiments that run
        the full methodology many times (Appendix B figures)."""
        return cls(
            seed=seed,
            horizon_days=horizon_days,
            topology=TopologyParams(
                n_tier1=4, n_transit=20, n_access=60, n_cdn=6, n_stub=200),
            wan=WANParams(n_regions=10, n_dest_prefixes=48),
            traffic=TrafficParams(n_flows=4000, horizon_days=horizon_days),
            outages=OutageParams(flaky_fraction=0.012),
        )


class Scenario:
    """The assembled synthetic world, ready to stream telemetry."""

    def __init__(self, params: Optional[ScenarioParams] = None):
        self.params = params or ScenarioParams()
        p = self.params
        # keep the traffic horizon in lock-step with the scenario horizon
        if p.traffic.horizon_days != p.horizon_days:
            p.traffic = replace(p.traffic, horizon_days=p.horizon_days)

        self.metros = MetroCatalog()
        self.graph = generate_as_graph(self.metros, p.topology, seed=p.seed)
        self.wan = generate_wan(self.graph, p.wan, seed=p.seed)
        self.universe = PrefixUniverse(self.graph, seed=p.seed)
        self.geoip = GeoIPDatabase(self.universe, self.metros,
                                   error_rate=p.geoip_error_rate, seed=p.seed)
        self.metadata = MetadataStore(self.wan, self.geoip)
        self.simulator = IngressSimulator(self.graph, self.wan,
                                          p.simulator, seed=p.seed)
        self.bmp = BmpFeed(self.graph, self.wan, seed=p.seed)
        self.traffic = TrafficGenerator(
            self.graph, self.wan, self.universe,
            distance_of=self.simulator.as_distance,
            params=p.traffic, seed=p.seed)
        self.exporter = IpfixExporter(sampling_rate=p.sampling_rate,
                                      seed=p.seed)
        self.outage_schedule: Tuple[Outage, ...] = tuple(schedule_outages(
            self.wan.link_ids, self.horizon_hours, p.outages, seed=p.seed))
        self.encoders = EncoderSet()
        self.flow_contexts: Tuple[FlowContext, ...] = tuple(
            self._build_contexts())
        # outage transitions per hour
        self._starts: Dict[int, List[int]] = {}
        self._ends: Dict[int, List[int]] = {}
        for outage in self.outage_schedule:
            self._starts.setdefault(outage.start_hour, []).append(outage.link_id)
            self._ends.setdefault(outage.end_hour, []).append(outage.link_id)
        # expansions for the fast path, by content; a miss is derived
        # from the cheapest one to start from (none yet: from `_empty`)
        self._expansions: LruDict[_Content, _Expansion] = \
            LruDict(_EXPANSION_SLOTS)
        # AS codes (positions among the sorted graph ASes) and each
        # link's owner's; an owner outside the graph has the code past
        # them, which no row reads
        self._asns = np.sort(self.graph.dense().asns)
        self._code_of = {asn: code
                         for code, asn in enumerate(self._asns.tolist())}
        self._owner_of = {link.link_id: self._code_of.get(link.peer_asn,
                                                          len(self._asns))
                          for link in self.wan.links}
        none = np.empty(0, dtype=np.int64)
        self._empty = _Expansion(
            (0, frozenset(), ()), none, none, none.astype(np.float64),
            none, none, none, none,
            np.zeros(len(self._asns) + 1, dtype=np.int64),
            np.zeros(max(self.wan.link_ids) + 1, dtype=np.int64))
        flows = self.traffic.flows
        self._dest_prefixes = sorted({f.dest_prefix_id for f in flows})
        self._dest_set = frozenset(self._dest_prefixes)
        # per-flow identifier columns (the columnar IPFIX path, the
        # expansion's per-prefix selection) and drift shift days
        self._flow_columns = (
            np.array([f.src_prefix_id for f in flows], dtype=np.int64),
            np.array([f.src_asn for f in flows], dtype=np.int64),
            np.array([f.dest_prefix_id for f in flows], dtype=np.int64),
        )
        self._src_metros = np.array([f.src_metro for f in flows], dtype=str)
        src_prefixes, src_asns, dest_prefixes = self._flow_columns
        self._shift_days = self.simulator.shift_days(src_asns, src_prefixes,
                                                     dest_prefixes)
        # rows per destination prefix, and per (old day, day) the rows
        # whose drift flag flips between them, per destination prefix
        self._rows_per_dest = np.bincount(dest_prefixes,
                                          minlength=self._dest_prefixes[-1]
                                          + 1)
        self._flips: LruDict[Tuple[int, int], np.ndarray] = \
            LruDict(_FLIP_SLOTS)

    # -- derived properties ----------------------------------------------------

    @property
    def horizon_hours(self) -> int:
        return self.params.horizon_days * 24

    def _build_contexts(self) -> Iterator[FlowContext]:
        enc = self.encoders
        for flow in self.traffic.flows:
            metro = self.geoip.lookup(flow.src_prefix_id)
            loc = UNKNOWN_LOCATION if metro is None else enc.location.encode(metro)
            yield FlowContext(
                src_asn=flow.src_asn,
                src_prefix=flow.src_prefix_id,
                src_loc=loc,
                dest_region=enc.region.encode(flow.dest_region),
                dest_service=enc.service.encode(flow.dest_service),
            )

    # -- state management --------------------------------------------------------

    def state_at(self, hour: int) -> AdvertisementState:
        """A fresh state with exactly the outages active at ``hour``."""
        state = AdvertisementState(self.wan)
        for outage in self.outage_schedule:
            if outage.active_at(hour):
                state.set_link_down(outage.link_id)
        return state

    def apply_outage_transitions(self, state: AdvertisementState,
                                 hour: int) -> None:
        """Apply scheduled link up/down transitions occurring at ``hour``."""
        for link_id in self._ends.get(hour, ()):
            state.set_link_up(link_id)
        for link_id in self._starts.get(hour, ()):
            state.set_link_down(link_id)

    def scheduled_down_at(self, hour: int) -> FrozenSet[int]:
        """Ground-truth set of links down at an hour (for analyses)."""
        return frozenset(o.link_id for o in self.outage_schedule
                         if o.active_at(hour))

    # -- streaming -----------------------------------------------------------------

    def _as_codes(self, asns: np.ndarray) -> np.ndarray:
        """Codes of graph ASes (``rows_reading``'s index)."""
        return np.searchsorted(self._asns, asns)

    def _expansion(self, day: int, state: AdvertisementState
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(flow row, link id, fraction) arrays for every flow's shares.

        Keyed by what the shares depend on, not by the state object: the
        state a probe restores and the next hour's unchanged state are
        hits.  A miss re-resolves only the rows the change from a cached
        expansion can reach and splices them into its arrays: from the
        one ``_estimate`` ranks cheapest, ties to the most recently used.
        """
        content = (day, state.link_outages, tuple(
            (prefix, state.removal_key(prefix), state.prepend_key(prefix))
            for prefix in sorted(self._dest_set & state.touched_prefixes())))
        found = self._expansions.get(content)
        if found is None:
            base, changes = min(
                ((cached, self._changes(cached, content))
                 for cached in reversed(self._expansions.values())),
                key=lambda pair: self._estimate(*pair),
                default=(self._empty, None))
            found = self._derive(base, content, state, changes)
            self._expansions[content] = found
        return found.rows, found.links, found.fracs

    def _derive(self, base: _Expansion, content: _Content,
                state: AdvertisementState,
                changes: Optional[_Changes]) -> _Expansion:
        """``base`` with its stale rows resolved again under ``state``
        (``changes``: from ``base`` to ``content``, None from
        ``_empty``)."""
        stale = self._stale_rows(base, changes)
        again = np.flatnonzero(stale)
        src_prefixes, src_asns, dest_prefixes = self._flow_columns
        # looked up per call: the benchmark's tracer wraps it
        rows, links, fracs, walked_rows, walked_asns, pool_rows, \
            pool_links = self.simulator.resolve_shares(
                src_asns[again], self._src_metros[again],
                src_prefixes[again], dest_prefixes[again], state,
                content[0] >= self._shift_days[again])
        # the simulator numbers the rows it was given: back to flow rows
        rows, walked_rows, pool_rows = (again[rows], again[walked_rows],
                                        again[pool_rows])
        keep = ~stale[base.rows]
        kept = base.rows[keep]
        # a row's shares all come from one side, both sides ascending:
        # interleaved, they take the from-scratch order
        places = interleaved(kept, rows)
        walk_stale = stale[base.footprint_rows]
        pool_stale = stale[base.pool_rows]
        keep_walk, keep_pool = ~walk_stale, ~pool_stale
        walked_codes = self._as_codes(walked_asns)
        return _Expansion(
            content, spliced(kept, rows, *places),
            spliced(base.links[keep], links, *places),
            spliced(base.fracs[keep], fracs, *places),
            np.concatenate((base.footprint_rows[keep_walk], walked_rows)),
            np.concatenate((base.footprint_codes[keep_walk], walked_codes)),
            np.concatenate((base.pool_rows[keep_pool], pool_rows)),
            np.concatenate((base.pool_links[keep_pool], pool_links)),
            _recount(base.rows_reading, base.footprint_codes[walk_stale],
                     walked_codes),
            _recount(base.rows_pooling, base.pool_links[pool_stale],
                     pool_links))

    def _changes(self, base: _Expansion, content: _Content) -> _Changes:
        """What differs between ``base`` and ``content``: the two days,
        the prefixes whose prepends changed, and the prefixes whose
        removal set moved.  Only the prefixes a withdrawal or a prepend
        touched in either content are walked one by one; the others move
        together, from one set of links down to the other."""
        (old_day, old_down, old_parts), (day, down, parts) = (base.content,
                                                              content)
        old_of = {prefix: (key, te) for prefix, key, te in old_parts}
        new_of = {prefix: (key, te) for prefix, key, te in parts}
        touched = old_of.keys() | new_of.keys()
        prepended: List[int] = []
        moved: _Moved = {}
        for prefix in sorted(touched):
            before, was_prepended = old_of.get(prefix, (old_down, ()))
            after, now_prepended = new_of.get(prefix, (down, ()))
            if was_prepended != now_prepended:
                prepended.append(prefix)
            elif before != after:
                moved.setdefault((before, after), []).append(prefix)
        return _Changes((old_day, day), prepended, moved, frozenset(touched),
                        None if old_down == down else (old_down, down))

    def _flipped(self, old_day: int, day: int) -> np.ndarray:
        """Rows per destination prefix whose drift flag flips between the
        two days (cached per day pair)."""
        counts = self._flips.get((old_day, day))
        if counts is None:
            counts = np.bincount(
                self._flow_columns[2][self._flip_mask(old_day, day)],
                minlength=len(self._rows_per_dest))
            self._flips[(old_day, day)] = counts
        return counts

    def _flip_mask(self, old_day: int, day: int) -> np.ndarray:
        """Mask of the rows whose drift flag flips between the days."""
        shifts = self._shift_days
        return ((old_day >= shifts) != (day >= shifts)).any(axis=1)

    def _stale_rows(self, base: _Expansion, changes: Optional[_Changes]
                    ) -> np.ndarray:
        """Mask of the flow rows whose shares may differ from ``base``'s
        (``changes``: from ``base``, None from ``_empty``): a drift flag
        flips between the two days, the prefix's prepends changed, or the
        change of the prefix's removal set reaches the row's footprint or
        pools (``IngressSimulator.touched``)."""
        dest = self._flow_columns[2]
        if changes is None:
            return np.ones(len(dest), dtype=np.bool_)
        old_day, day = changes.days
        stale = (np.zeros(len(dest), dtype=np.bool_) if old_day == day
                 else self._flip_mask(old_day, day))
        if changes.prepended:
            stale |= _marked(dest, changes.prepended,
                             len(self._rows_per_dest))
        moved = dict(changes.moved)
        if changes.untouched is not None:
            rest = [prefix for prefix in self._dest_prefixes
                    if prefix not in changes.touched]
            if rest:
                moved[changes.untouched] = moved.get(changes.untouched,
                                                     []) + rest
        # one scan per distinct reached set: a prefix withdrawn on its
        # own has a removal set of its own and so moves as its own
        # group, but a probe reaches every such group alike
        by_reach: Dict[Tuple[FrozenSet[int], FrozenSet[int]], List[int]] = {}
        for (before, after), prefixes in moved.items():
            by_reach.setdefault(self.simulator.touched(before, after),
                                []).extend(prefixes)
        for (asns, links), prefixes in by_reach.items():
            moving = _marked(dest, prefixes, len(self._rows_per_dest))
            codes = [self._code_of[asn] for asn in asns
                     if asn in self._code_of]
            for reached, rows, read, size in (
                    (codes, base.footprint_rows, base.footprint_codes,
                     len(base.rows_reading)),
                    (list(links), base.pool_rows, base.pool_links,
                     len(base.rows_pooling))):
                if reached:
                    hit = rows[_marked(read, reached, size)]
                    stale[hit[moving[hit]]] = True
        return stale

    def _estimate(self, base: _Expansion, changes: _Changes) -> float:
        """A guess at how many rows ``_stale_rows`` would mark, to order
        the candidate bases by and nothing else: the rows whose drift flag
        flips or whose prefix's prepends changed, plus per removal-set
        change the rows whose pool held a removed link plus the rows that
        read a restored link's owner, weighted by the share of the
        prefixes that change covers (no routing table is consulted)."""
        (old_day, day), prepended = changes.days, changes.prepended
        stale = 0
        if old_day != day:
            flipped = self._flipped(old_day, day)
            stale = int(flipped.sum()) - int(flipped[prepended].sum())
        if prepended:
            stale += int(self._rows_per_dest[prepended].sum())
        # prefixes by the links a change removes and restores: the
        # changes of one probe mostly share them
        weights: Dict[Tuple[FrozenSet[int], FrozenSet[int]], int] = {}
        for (before, after), prefixes in changes.moved.items():
            change = (after - before, before - after)
            weights[change] = weights.get(change, 0) + len(prefixes)
        if changes.untouched is not None:
            before, after = changes.untouched
            change = (after - before, before - after)
            weights[change] = weights.get(change, 0) + len(
                self._dest_prefixes) - len(changes.touched)
        reached = 0
        pooling, reading = base.rows_pooling.item, base.rows_reading.item
        for (removed, restored), weight in weights.items():
            reached += weight * (sum(map(pooling, removed)) + sum(map(
                reading, {self._owner_of[link] for link in restored})))
        return float(stale + reached / len(self._dest_prefixes))

    def stream(
        self,
        start_hour: int,
        end_hour: int,
        state: Optional[AdvertisementState] = None,
        apply_outages: bool = True,
    ) -> Iterator[HourColumns]:
        """Stream hourly telemetry columns over [start_hour, end_hour).

        If ``state`` is provided, the caller owns it (e.g. a CMS injecting
        withdrawals between iterations); scheduled outages are still
        applied unless ``apply_outages`` is False.
        """
        if not 0 <= start_hour <= end_hour <= self.horizon_hours:
            raise ValueError("stream window outside the scenario horizon")
        if state is None:
            state = self.state_at(start_hour) if apply_outages else (
                AdvertisementState(self.wan))
        elif apply_outages:
            # bring the caller's state up to the window start: an outage
            # that ends exactly here is lifted (the caller's previous
            # window stopped short of it), the active ones are down
            self.apply_outage_transitions(state, start_hour)
            for link_id in self.scheduled_down_at(start_hour):
                state.set_link_down(link_id)
        for hour in range(start_hour, end_hour):
            if apply_outages and hour != start_hour:
                self.apply_outage_transitions(state, hour)
            day = hour // 24
            rows, links, fracs = self._expansion(day, state)
            vols = self.traffic.volumes_for_hour(hour)
            yield HourColumns(hour, rows, links, vols[rows] * fracs,
                              self.exporter)

    def aggregated_hours(self, start_hour: int,
                         end_hour: int) -> Iterator[AggColumns]:
        """The feed: stream, join and aggregate ``[start_hour, end_hour)``.

        The one production route from the world to an aggregated hour
        (paper §4.2): every service, CLI and pipeline worker consumes
        this generator, as ``ingest_hour(c.hour, c)`` — the columns go
        in as they are.  The join is against the scenario's own
        pre-seeded encoders, so feature codes match :attr:`flow_contexts`.
        """
        aggregator = HourlyAggregator(self.metadata, encoders=self.encoders)
        for cols in self.stream(start_hour, end_hour):
            arrays = self.ipfix_columns_for(cols)
            with obs.timed("pipeline.aggregate_hour"):
                columns = aggregator.aggregate_hour_columns(cols.hour,
                                                            *arrays)
            yield columns

    # -- record-level view (pipeline-faithful path) -----------------------------------

    def ipfix_records_for(self, cols: HourColumns) -> List[IpfixRecord]:
        """Convert an hour of columns into IPFIX records."""
        flows = self.traffic.flows
        records = []
        rows, links, values = self._positive_columns(cols)
        for row, link_id, bytes_ in zip(rows.tolist(), links.tolist(), values.tolist()):
            flow = flows[row]
            records.append(IpfixRecord(cols.hour, link_id,
                                       flow.src_prefix_id, flow.src_asn,
                                       flow.dest_prefix_id, bytes_))
        return records

    @staticmethod
    def _positive_columns(cols: HourColumns
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(flow rows, link ids, sampled bytes) of the entries with
        sampled bytes > 0, in column order, as ``int64``/``int64``/
        ``float64`` arrays."""
        keep = cols.sampled_bytes > 0.0
        return (cols.flow_rows[keep].astype(np.int64, copy=False),
                cols.link_ids[keep].astype(np.int64, copy=False),
                cols.sampled_bytes[keep].astype(np.float64, copy=False))

    def ipfix_columns_for(self, cols: HourColumns
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray, np.ndarray]:
        """One hour of columns as aligned IPFIX identifier arrays.

        Returns ``(link_ids, src_prefix_ids, src_asns, dest_prefix_ids,
        bytes)`` filtered to positive byte counts — the same records, in
        the same order, as :meth:`ipfix_records_for`, without building
        per-record objects.  Feed straight into
        :meth:`repro.pipeline.HourlyAggregator.aggregate_hour_columns`.
        """
        src_prefixes, src_asns, dest_prefixes = self._flow_columns
        rows, links, values = self._positive_columns(cols)
        return (links, src_prefixes[rows], src_asns[rows],
                dest_prefixes[rows], values)

    def traffic_entries_for(self, cols: HourColumns) -> TrafficSample:
        """One hour of columns as a CMS :class:`TrafficSample`: the
        entries with bytes > 0, in column order, over
        :attr:`flow_contexts` — the hour the CMS, the risk analysis
        and the de-peering study all read."""
        rows, links, values = self._positive_columns(cols)
        return TrafficSample(links, self._flow_columns[2][rows], rows,
                             values, self.flow_contexts)
