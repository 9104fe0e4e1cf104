"""Persistent flow population and hourly volume generation.

Enterprise cloud ingress is dominated by long-lived, high-volume flows
(paper §2: IPSec/VPN tunnels, storage, AI pipelines).  The generator
builds a persistent population of flow aggregates — (source /24,
destination prefix) pairs with heavy-tailed base rates — and produces
per-hour byte volumes with diurnal/weekly modulation and lognormal noise.

Flow churn (flows that first appear mid-scenario) is what creates the
"tuple not seen in training" cases that motivate the paper's ensemble
models (§3.3.1).

Byte mass per source-AS distance is calibrated against targets derived
from paper Figure 2 (≈60% of bytes from directly-peering ASes, ≈98% from
ASes at most 3 hops away).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..topology.asgraph import ASGraph, ASRole
from ..topology.wan import CloudWAN
from ..util.hashing import mix64
from .diurnal import diurnal_factors_vec, tz_offset_hours, weekday
from .prefixes import PrefixUniverse
from .workloads import profile_for

#: byte-mass targets per AS distance from the WAN (paper Figure 2)
DEFAULT_DISTANCE_TARGETS: Dict[int, float] = {1: 0.58, 2: 0.25, 3: 0.152, 4: 0.018}

#: relative per-AS pick weight within a distance group
DEFAULT_ROLE_WEIGHTS: Dict[ASRole, float] = {
    ASRole.CDN: 22.0,
    ASRole.TIER1: 4.0,
    ASRole.TRANSIT: 5.0,
    ASRole.ACCESS: 4.0,
    ASRole.STUB: 1.0,
}


@dataclass(frozen=True)
class FlowSpec:
    """A persistent flow aggregate at TIPSY's finest granularity.

    One FlowSpec corresponds to an (source /24, destination prefix) pair;
    its destination region/type come from the destination prefix.
    """

    flow_id: int
    src_prefix_id: int
    src_asn: int
    src_metro: str
    dest_prefix_id: int
    dest_region: str
    dest_service: str
    base_rate_mbps: float
    profile_name: str
    start_day: int
    end_day: int
    tz_offset: int


@dataclass
class TrafficParams:
    """Knobs for the flow population."""

    n_flows: int = 12_000
    # fraction of flows that first appear after the scenario start
    late_start_fraction: float = 0.12
    # fraction of flows that stop before the scenario end
    early_end_fraction: float = 0.05
    horizon_days: int = 28
    distance_targets: Dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_DISTANCE_TARGETS))
    role_weights: Dict[ASRole, float] = field(
        default_factory=lambda: dict(DEFAULT_ROLE_WEIGHTS))
    # zipf-ish skew across destination prefixes
    dest_zipf_s: float = 1.05
    # hourly multiplicative noise (lognormal sigma)
    noise_sigma: float = 0.25
    # cap on a single flow aggregate's share of total demand: keeps the
    # heavy tail realistic without one flow dominating a whole partition
    rate_cap_fraction: float = 0.004
    # flow rates are scaled so aggregate demand averages this fraction of
    # the WAN's total peering capacity; hot links then run at meaningful
    # utilizations and the CMS / risk analyses have something to do
    mean_utilization_target: float = 0.08
    # a fraction of flows is intermittent (batch jobs, periodic syncs):
    # active only on a random subset of days.  Short training windows
    # miss many of them entirely — the effect behind paper Figure 9's
    # accuracy growth with training-window length.
    intermittent_fraction: float = 0.30
    intermittent_active_lo: float = 0.15
    intermittent_active_hi: float = 0.60


class TrafficGenerator:
    """Builds a flow population and serves per-hour byte volumes."""

    def __init__(
        self,
        graph: ASGraph,
        wan: CloudWAN,
        universe: PrefixUniverse,
        distance_of: Callable[[int], Optional[int]],
        params: Optional[TrafficParams] = None,
        seed: int = 0,
    ):
        self.graph = graph
        self.wan = wan
        self.universe = universe
        self.params = params or TrafficParams()
        self.seed = seed
        self._rng = random.Random(seed ^ 0x7AF1C)
        # the hour last drawn and its volumes: a CMS loop streams one
        # hour for the live state, again after acting and once per probe
        self._last_volumes: Optional[Tuple[int, np.ndarray]] = None
        flows = self._build_flows(distance_of)
        self.flows: Tuple[FlowSpec, ...] = tuple(
            self._scale_to_utilization(flows))
        self._build_arrays()

    # -- population ----------------------------------------------------------

    def _build_flows(self, distance_of: Callable[[int], Optional[int]]
                     ) -> List[FlowSpec]:
        params = self.params
        rng = self._rng

        # group source ASes by distance to the WAN
        by_distance: Dict[int, List[int]] = {}
        for asn in self.universe.asns():
            d = distance_of(asn)
            if d is None:
                continue
            by_distance.setdefault(min(d, 4), []).append(asn)
        targets = {
            d: t for d, t in params.distance_targets.items() if by_distance.get(d)
        }
        total_target = sum(targets.values())
        if not targets:
            raise ValueError("no routable source ASes to generate traffic from")

        # destination popularity: zipf over destination prefixes
        n_dest = len(self.wan.dest_prefixes)
        dest_weights = [1.0 / (i + 1) ** params.dest_zipf_s for i in range(n_dest)]
        dest_order = list(range(n_dest))
        rng.shuffle(dest_order)  # decouple popularity from prefix id order

        flows: List[FlowSpec] = []
        flow_id = 0
        for d, target in sorted(targets.items()):
            n_flows_d = max(1, round(params.n_flows * target / total_target))
            asns = by_distance[d]
            weights = [
                params.role_weights.get(self.graph.node(a).role, 1.0) *
                max(1, len(self.universe.of_as(a)))
                for a in asns
            ]
            chosen_asns = rng.choices(asns, weights=weights, k=n_flows_d)
            for asn in chosen_asns:
                prefixes = self.universe.of_as(asn)
                src = prefixes[rng.randrange(len(prefixes))]
                dest_idx = dest_order[
                    rng.choices(range(n_dest), weights=dest_weights, k=1)[0]]
                dest = self.wan.dest_prefix(dest_idx)
                profile = profile_for(dest.service)
                rate = float(np.exp(rng.gauss(
                    math.log(profile.rate_scale_mbps), profile.rate_sigma)))
                start_day, end_day = self._lifetime(rng)
                metro = self.graph.metros.get(src.metro)
                flows.append(FlowSpec(
                    flow_id=flow_id,
                    src_prefix_id=src.prefix_id,
                    src_asn=asn,
                    src_metro=src.metro,
                    dest_prefix_id=dest.prefix_id,
                    dest_region=dest.region,
                    dest_service=dest.service,
                    base_rate_mbps=rate,
                    profile_name=profile.name,
                    start_day=start_day,
                    end_day=end_day,
                    tz_offset=tz_offset_hours(metro.lon),
                ))
                flow_id += 1
        return flows

    def _scale_to_utilization(self, flows: List[FlowSpec]) -> List[FlowSpec]:
        """Scale base rates so demand hits the mean-utilization target.

        Individual flows are then capped at ``rate_cap_fraction`` of the
        total; the cap trims the extreme lognormal tail so a single flow
        aggregate cannot dominate a whole evaluation partition.
        """
        target = self.params.mean_utilization_target
        if target <= 0.0 or not flows:
            return flows
        total_capacity_mbps = sum(
            l.capacity_gbps for l in self.wan.links) * 1000.0
        total_rate_mbps = sum(f.base_rate_mbps for f in flows)
        if total_rate_mbps <= 0.0:
            return flows
        target_total = target * total_capacity_mbps
        factor = target_total / total_rate_mbps
        cap = self.params.rate_cap_fraction * target_total
        return [
            FlowSpec(
                flow_id=f.flow_id, src_prefix_id=f.src_prefix_id,
                src_asn=f.src_asn, src_metro=f.src_metro,
                dest_prefix_id=f.dest_prefix_id, dest_region=f.dest_region,
                dest_service=f.dest_service,
                base_rate_mbps=min(f.base_rate_mbps * factor, cap),
                profile_name=f.profile_name, start_day=f.start_day,
                end_day=f.end_day, tz_offset=f.tz_offset,
            )
            for f in flows
        ]

    def _lifetime(self, rng: random.Random) -> Tuple[int, int]:
        params = self.params
        horizon = params.horizon_days
        start_day = 0
        end_day = horizon
        if rng.random() < params.late_start_fraction:
            start_day = rng.randint(1, max(1, horizon - 1))
        if rng.random() < params.early_end_fraction:
            end_day = rng.randint(start_day + 1, horizon) if start_day + 1 <= horizon else horizon
        return start_day, end_day

    def _build_arrays(self) -> None:
        flows = self.flows
        n = len(flows)
        self._base_bytes_hour = np.array(
            [f.base_rate_mbps * 1e6 / 8.0 * 3600.0 for f in flows],
            dtype=np.float64)
        profiles = [profile_for(f.dest_service) for f in flows]
        self._peak = np.array([p.peak_hour for p in profiles], dtype=np.float64)
        self._amp = np.array([p.amplitude for p in profiles], dtype=np.float64)
        self._wkf = np.array([p.weekend_factor for p in profiles],
                             dtype=np.float64)
        self._tz = np.array([f.tz_offset for f in flows], dtype=np.int64)
        self._start_day = np.array([f.start_day for f in flows], dtype=np.int64)
        self._end_day = np.array([f.end_day for f in flows], dtype=np.int64)
        # intermittent activity: a (day, flow) mask drawn once
        params = self.params
        rng = np.random.default_rng(mix64(0xAC7, seed=self.seed))
        activity = np.ones(n, dtype=np.float64)
        intermittent = rng.random(n) < params.intermittent_fraction
        activity[intermittent] = rng.uniform(
            params.intermittent_active_lo, params.intermittent_active_hi,
            size=int(intermittent.sum()))
        self.activity = activity
        days = params.horizon_days + 1
        self._active_day = rng.random((days, n)) < activity[None, :]

    # -- volumes -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.flows)

    def volumes_for_hour(self, hour: int) -> np.ndarray:
        """Bytes sent by each flow during an absolute hour index.

        Deterministic for a given (generator seed, hour).  Inactive flows
        (outside their lifetime) produce zero.  The array is read-only:
        the last hour drawn is handed to every caller asking for it again.
        """
        last = self._last_volumes
        if last is not None and last[0] == hour:
            return last[1]
        day = hour // 24
        active = (self._start_day <= day) & (day <= self._end_day)
        if day < self._active_day.shape[0]:
            active = active & self._active_day[day]
        local = (hour % 24 + self._tz) % 24
        is_weekend = weekday(hour) >= 5
        factors = diurnal_factors_vec(
            local.astype(float), self._peak, self._amp, is_weekend, self._wkf)
        rng = np.random.default_rng(mix64(hour, seed=self.seed))
        noise = rng.lognormal(mean=0.0, sigma=self.params.noise_sigma,
                              size=len(self.flows))
        volumes = self._base_bytes_hour * factors * noise * active
        volumes.flags.writeable = False
        self._last_volumes = (hour, volumes)
        return volumes
