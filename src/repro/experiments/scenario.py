"""End-to-end scenario: build the synthetic world, stream telemetry.

A :class:`Scenario` wires together every substrate — topology, WAN, BGP
simulator, traffic, outage schedule, telemetry, pipeline encoders — and
streams hour-by-hour telemetry columns.  It is the single entry point the
examples, the evaluation runner and the benchmarks all share.

The streaming fast path is columnar: per hour it produces aligned numpy
arrays (flow row, link id, true bytes, sampled bytes).  This is the
scaled-down stand-in for the paper's Spark aggregation pipeline (§4.2-4.3);
the record-level pipeline classes in :mod:`repro.pipeline` expose the same
data as :class:`AggRecord` streams when fidelity matters more than speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterator, List,
                    NamedTuple, Optional, Tuple)

import numpy as np

from ..bgp.simulator import IngressSimulator, SimulatorParams
from ..bgp.state import AdvertisementState
from ..pipeline.encoding import EncoderSet
from ..pipeline.outages import Outage, OutageParams, schedule_outages
from ..pipeline.records import AggRecord, FlowContext, UNKNOWN_LOCATION
from ..telemetry.bmp import BmpFeed
from ..telemetry.geoip import GeoIPDatabase
from ..telemetry.ipfix import IpfixExporter, IpfixRecord
from ..telemetry.metadata import MetadataStore
from ..topology.asgraph import TopologyParams, generate_as_graph
from ..topology.geography import MetroCatalog
from ..topology.wan import WANParams, generate_wan
from ..traffic.generator import TrafficGenerator, TrafficParams
from ..traffic.prefixes import PrefixUniverse

if TYPE_CHECKING:
    from ..cms.mitigation import TrafficEntry


class HourColumns(NamedTuple):
    """One hour of telemetry in columnar form (aligned arrays)."""

    hour: int
    flow_rows: np.ndarray     # index into scenario.traffic.flows
    link_ids: np.ndarray
    true_bytes: np.ndarray    # ground truth (never shown to TIPSY)
    sampled_bytes: np.ndarray  # IPFIX-sampled, scaled-up estimate


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
        # expansion cache for the fast path
        self._exp_key: Optional[Tuple[int, int, int]] = None
        self._exp: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        # per-flow identifier columns for the columnar IPFIX path
        self._flow_columns: Optional[Tuple[np.ndarray, np.ndarray,
                                           np.ndarray]] = None

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

    def link_capacities(self) -> Dict[int, float]:
        return {l.link_id: l.capacity_gbps for l in self.wan.links}

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

    def _expansion(self, day: int, state: AdvertisementState
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        key = (state.uid, state.version, day)
        if self._exp_key == key:
            return self._exp
        rows: List[int] = []
        links: List[int] = []
        fracs: List[float] = []
        resolve = self.simulator.resolve_shares
        for i, flow in enumerate(self.traffic.flows):
            shares = resolve(flow.src_asn, flow.src_metro, flow.src_prefix_id,
                             flow.dest_prefix_id, state, day)
            for link_id, frac in shares:
                rows.append(i)
                links.append(link_id)
                fracs.append(frac)
        self._exp = (np.array(rows, dtype=np.int64),
                     np.array(links, dtype=np.int64),
                     np.array(fracs))
        self._exp_key = key
        return self._exp

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
            # bring the caller's state up to the window start
            for outage in self.outage_schedule:
                if outage.active_at(start_hour):
                    if outage.link_id not in state.link_outages:
                        state.set_link_down(outage.link_id)
        for hour in range(start_hour, end_hour):
            if apply_outages and hour != start_hour:
                self.apply_outage_transitions(state, hour)
            day = hour // 24
            rows, links, fracs = self._expansion(day, state)
            vols = self.traffic.volumes_for_hour(hour)
            true_bytes = vols[rows] * fracs
            sampled = self.exporter.sample_bytes(true_bytes, hour)
            yield HourColumns(hour, rows, links, true_bytes, sampled)

    # -- record-level view (pipeline-faithful path) -----------------------------------

    def ipfix_records_for(self, cols: HourColumns,
                          use_sampled: bool = True) -> List[IpfixRecord]:
        """Convert an hour of columns into IPFIX records."""
        flows = self.traffic.flows
        values = cols.sampled_bytes if use_sampled else cols.true_bytes
        records = []
        for row, link_id, bytes_ in zip(cols.flow_rows, cols.link_ids, values):
            if bytes_ <= 0.0:
                continue
            flow = flows[row]
            records.append(IpfixRecord(cols.hour, int(link_id),
                                       flow.src_prefix_id, flow.src_asn,
                                       flow.dest_prefix_id, float(bytes_)))
        return records

    def ipfix_columns_for(self, cols: HourColumns,
                          use_sampled: bool = True
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray, np.ndarray]:
        """One hour of columns as aligned IPFIX identifier arrays.

        Returns ``(link_ids, src_prefix_ids, src_asns, dest_prefix_ids,
        bytes)`` filtered to positive byte counts — the same records, in
        the same order, as :meth:`ipfix_records_for`, without building
        per-record objects.  Feed straight into
        :meth:`repro.pipeline.HourlyAggregator.aggregate_hour_columns`.
        """
        if self._flow_columns is None:
            flows = self.traffic.flows
            self._flow_columns = (
                np.array([f.src_prefix_id for f in flows], dtype=np.int64),
                np.array([f.src_asn for f in flows], dtype=np.int64),
                np.array([f.dest_prefix_id for f in flows], dtype=np.int64),
            )
        src_prefixes, src_asns, dest_prefixes = self._flow_columns
        values = cols.sampled_bytes if use_sampled else cols.true_bytes
        keep = values > 0.0
        rows = cols.flow_rows[keep]
        return (cols.link_ids[keep].astype(np.int64, copy=False),
                src_prefixes[rows], src_asns[rows], dest_prefixes[rows],
                values[keep].astype(np.float64, copy=False))

    def traffic_entries_for(self, cols: HourColumns,
                            use_sampled: bool = True
                            ) -> "List[TrafficEntry]":
        """One hour of columns as CMS :class:`TrafficEntry` objects."""
        from ..cms.mitigation import TrafficEntry

        flows = self.traffic.flows
        contexts = self.flow_contexts
        values = cols.sampled_bytes if use_sampled else cols.true_bytes
        entries = []
        for row, link_id, bytes_ in zip(cols.flow_rows, cols.link_ids, values):
            if bytes_ <= 0.0:
                continue
            entries.append(TrafficEntry(
                link_id=int(link_id),
                dest_prefix_id=flows[row].dest_prefix_id,
                context=contexts[row],
                bytes=float(bytes_)))
        return entries

    def risk_entries_for(self, cols: HourColumns,
                         use_sampled: bool = True) -> List[Tuple[int, FlowContext, float]]:
        """One hour of columns as (link, context, bytes) for RiskAnalyzer."""
        contexts = self.flow_contexts
        values = cols.sampled_bytes if use_sampled else cols.true_bytes
        return [
            (int(link_id), contexts[row], float(bytes_))
            for row, link_id, bytes_ in zip(cols.flow_rows, cols.link_ids,
                                            values)
            if bytes_ > 0.0
        ]

    def agg_records_for(self, cols: HourColumns,
                        use_sampled: bool = True) -> List[AggRecord]:
        """One hour of columns as aggregated, feature-indexed records."""
        contexts = self.flow_contexts
        values = cols.sampled_bytes if use_sampled else cols.true_bytes
        sums: Dict[Tuple[FlowContext, int], float] = {}
        for row, link_id, bytes_ in zip(cols.flow_rows, cols.link_ids, values):
            if bytes_ <= 0.0:
                continue
            key = (contexts[row], int(link_id))
            sums[key] = sums.get(key, 0.0) + float(bytes_)
        return [
            AggRecord(cols.hour, link_id, ctx.src_asn, ctx.src_prefix,
                      ctx.src_loc, ctx.dest_region, ctx.dest_service, bytes_)
            for (ctx, link_id), bytes_ in sums.items()
        ]
