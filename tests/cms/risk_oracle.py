"""The two Algorithm-1 loops ``RiskAnalyzer`` replaced, kept as an oracle.

Until the risk analysis read the CMS's columnar ``TrafficSample``,
Appendix C's Algorithm 1 was written out twice over a list of
``(link, context, bytes)`` entries per hour: once failing single links,
once failing whole routers, metros or peers, each with its own finding
type and its own prediction cache.  The two classes below are those
loops, unchanged; :func:`oracle_findings` feeds them a sample's rows
one at a time (:func:`~tests.cms.entry_oracle.entries_of`) and states
what they found as ``RiskAnalyzer``'s findings, with every float as
``float.hex``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.cms.monitor import capacity_bytes
from repro.core.base import IngressModel
from repro.pipeline.records import FlowContext
from repro.topology.wan import CloudWAN

from tests.cms.entry_oracle import entries_of


@dataclass(frozen=True)
class RiskFinding:
    """One at-risk link under one affecting link's outage (a table row)."""

    link_id: int
    peer_asn: int
    capacity_gbps: float
    typical_high_hours: int       # hours actually over threshold
    predicted_extra_high_hours: int  # extra over-threshold hours if outage
    affecting_link_id: int
    affecting_peer_asn: int
    affecting_capacity_gbps: float


class RiskAnalyzer:
    """Runs Algorithm 1 over per-hour traffic observations.

    The one spill sum outside :func:`~repro.core.base.spill_from_groups`,
    on purpose: ``_pred_cache`` keeps each (context, outage)'s normalised
    weights across all the hours analysed, where an uncached
    ``what_if`` per hour would predict them again — the same findings,
    1.7x (Hist_AL) to 2.3x (AL+G) slower on the medium world's 72 test
    hours (best of three, 2-vCPU VM).
    """

    def __init__(
        self,
        wan: CloudWAN,
        model: IngressModel,
        threshold: float = 0.70,
        prediction_k: int = 3,
    ):
        self.wan = wan
        self.model = model
        self.threshold = threshold
        self.prediction_k = prediction_k
        self._capacity_bytes: Dict[int, float] = {
            l.link_id: capacity_bytes(l.capacity_gbps)
            for l in wan.links
        }
        # prediction cache: (context, outaged link) -> ((link, weight), ...)
        self._pred_cache: Dict[Tuple[FlowContext, int],
                               Tuple[Tuple[int, float], ...]] = {}

    def _shift_distribution(
        self, context: FlowContext, outaged: int,
    ) -> Tuple[Tuple[int, float], ...]:
        key = (context, outaged)
        cached = self._pred_cache.get(key)
        if cached is None:
            predictions = self.model.predict(
                context, self.prediction_k, frozenset((outaged,)))
            total = 0.0
            for p in predictions:
                total += p.score
            if total <= 0.0:
                cached = ()
            else:
                cached = tuple((p.link_id, p.score / total)
                               for p in predictions)
            self._pred_cache[key] = cached
        return cached

    def analyze(
        self,
        hours: Iterable[Tuple[int, Sequence[Tuple[int, FlowContext, float]]]],
        min_extra_hours: int = 1,
    ) -> List[RiskFinding]:
        """Run Algorithm 1.

        Args:
            hours: iterable of (hour, entries) where each entry is
                (link_id, flow context, bytes) for that hour.
            min_extra_hours: drop findings with fewer predicted extra
                over-threshold hours.

        Returns:
            Findings sorted by predicted extra hours, descending (the
            paper sorts its table the same way).
        """
        threshold = self.threshold
        capacity = self._capacity_bytes
        # per (affected link, affecting link): count of extra high hours
        extra_hours: Dict[Tuple[int, int], int] = {}
        typical_hours: Dict[int, int] = {}

        for _hour, entries in hours:
            actual: Dict[int, float] = {}
            by_link: Dict[int, List[Tuple[FlowContext, float]]] = {}
            for link_id, context, bytes_ in entries:
                actual[link_id] = actual.get(link_id, 0.0) + bytes_
                by_link.setdefault(link_id, []).append((context, bytes_))

            over_actual = {
                link for link, bytes_ in actual.items()
                if bytes_ / capacity[link] >= threshold
            }
            for link in over_actual:
                typical_hours[link] = typical_hours.get(link, 0) + 1

            # what-if: each link A with traffic goes down for this hour
            for a_link, flows in by_link.items():
                induced: Dict[int, float] = {}
                for context, bytes_ in flows:
                    for target, weight in self._shift_distribution(
                            context, a_link):
                        induced[target] = induced.get(target, 0.0) + (
                            bytes_ * weight)
                for b_link, extra in induced.items():
                    if b_link == a_link or b_link in over_actual:
                        continue
                    base = actual.get(b_link, 0.0)
                    cap = capacity.get(b_link)
                    if cap is None:
                        continue
                    if (base + extra) / cap >= threshold:
                        key = (b_link, a_link)
                        extra_hours[key] = extra_hours.get(key, 0) + 1

        findings: List[RiskFinding] = []
        for (b_link, a_link), count in extra_hours.items():
            if count < min_extra_hours:
                continue
            b = self.wan.link(b_link)
            a = self.wan.link(a_link)
            findings.append(RiskFinding(
                link_id=b_link,
                peer_asn=b.peer_asn,
                capacity_gbps=b.capacity_gbps,
                typical_high_hours=typical_hours.get(b_link, 0),
                predicted_extra_high_hours=count,
                affecting_link_id=a_link,
                affecting_peer_asn=a.peer_asn,
                affecting_capacity_gbps=a.capacity_gbps,
            ))
        findings.sort(key=lambda f: (-f.predicted_extra_high_hours,
                                     f.link_id, f.affecting_link_id))
        return findings


@dataclass(frozen=True)
class GroupRiskFinding:
    """An at-risk link under a whole router/site/peer outage."""

    link_id: int
    peer_asn: int
    capacity_gbps: float
    predicted_extra_high_hours: int
    affecting_group: str


class GroupRiskAnalyzer:
    """Appendix C's extension: risk under router or whole-site outages.

    Instead of failing one link at a time, fails every link sharing a
    router, metro, or peer — the "single router or single site outages"
    the paper says the same machinery analyzes.  Keeps its own cached
    spill sum for the reason :class:`RiskAnalyzer` does.
    """

    GROUPINGS = ("router", "metro", "peer")

    def __init__(self, wan: CloudWAN, model: IngressModel,
                 threshold: float = 0.70, prediction_k: int = 3):
        self.wan = wan
        self.model = model
        self.threshold = threshold
        self.prediction_k = prediction_k
        self._capacity_bytes = {
            l.link_id: capacity_bytes(l.capacity_gbps)
            for l in wan.links
        }
        self._pred_cache: Dict[Tuple[FlowContext, FrozenSet[int]],
                               Tuple[Tuple[int, float], ...]] = {}

    def group_of(self, link_id: int, group_by: str) -> str:
        link = self.wan.link(link_id)
        if group_by == "router":
            return link.router
        if group_by == "metro":
            return link.metro
        if group_by == "peer":
            return f"AS{link.peer_asn}"
        raise ValueError(f"unknown grouping {group_by!r}")

    def _groups(self, group_by: str) -> Dict[str, FrozenSet[int]]:
        groups: Dict[str, Set[int]] = {}
        for link in self.wan.links:
            groups.setdefault(self.group_of(link.link_id, group_by),
                              set()).add(link.link_id)
        return {name: frozenset(ids) for name, ids in groups.items()}

    def _shift(self, context: FlowContext,
               down: FrozenSet[int]) -> Tuple[Tuple[int, float], ...]:
        key = (context, down)
        cached = self._pred_cache.get(key)
        if cached is None:
            predictions = self.model.predict(context, self.prediction_k,
                                             down)
            total = 0.0
            for p in predictions:
                total += p.score
            cached = tuple(
                (p.link_id, p.score / total) for p in predictions
            ) if total > 0.0 else ()
            self._pred_cache[key] = cached
        return cached

    def analyze(
        self,
        hours: Iterable[Tuple[int, Sequence[Tuple[int, FlowContext, float]]]],
        group_by: str = "router",
        min_extra_hours: int = 1,
    ) -> List[GroupRiskFinding]:
        """Algorithm 1 with whole-group outages."""
        groups = self._groups(group_by)
        threshold = self.threshold
        capacity = self._capacity_bytes
        extra: Dict[Tuple[int, str], int] = {}

        for _hour, entries in hours:
            actual: Dict[int, float] = {}
            by_group: Dict[str, List[Tuple[FlowContext, float]]] = {}
            for link_id, context, bytes_ in entries:
                actual[link_id] = actual.get(link_id, 0.0) + bytes_
                by_group.setdefault(
                    self.group_of(link_id, group_by), []).append(
                        (context, bytes_))
            over_actual = {
                link for link, b in actual.items()
                if b / capacity[link] >= threshold
            }
            for group_name, flows in by_group.items():
                down = groups[group_name]
                induced: Dict[int, float] = {}
                for context, bytes_ in flows:
                    for target, weight in self._shift(context, down):
                        induced[target] = induced.get(target, 0.0) + (
                            bytes_ * weight)
                for b_link, add in induced.items():
                    if b_link in down or b_link in over_actual:
                        continue
                    if (actual.get(b_link, 0.0) + add) / capacity[b_link] >= threshold:
                        key = (b_link, group_name)
                        extra[key] = extra.get(key, 0) + 1

        findings = []
        for (b_link, group_name), count in extra.items():
            if count < min_extra_hours:
                continue
            link = self.wan.link(b_link)
            findings.append(GroupRiskFinding(
                link_id=b_link, peer_asn=link.peer_asn,
                capacity_gbps=link.capacity_gbps,
                predicted_extra_high_hours=count,
                affecting_group=group_name))
        findings.sort(key=lambda f: (-f.predicted_extra_high_hours,
                                     f.link_id, f.affecting_group))
        return findings


def hours_of(samples):
    """Each sample as one (hour, [(link, context, bytes), ...]) of the
    old entry form."""
    return [(hour, [(link, context, bytes_)
                    for link, _prefix, context, bytes_ in entries_of(sample)])
            for hour, sample in enumerate(samples)]


def typical_hours_by_entry(wan, samples, threshold):
    """Per link, the hours its running entry-order total was over
    ``threshold`` of its capacity (the group loop did not report them)."""
    capacity = {l.link_id: capacity_bytes(l.capacity_gbps) for l in wan.links}
    typical = {}
    for _hour, entries in hours_of(samples):
        actual = {}
        for link, _context, bytes_ in entries:
            actual[link] = actual.get(link, 0.0) + bytes_
        for link, bytes_ in actual.items():
            if bytes_ / capacity[link] >= threshold:
                typical[link] = typical.get(link, 0) + 1
    return typical


def oracle_findings(wan, model, samples, group_by, threshold=0.70,
                    min_extra_hours=1):
    """What the old loops find over ``samples``, in their order, as
    (link, peer, capacity, typical hours, extra hours, failed group)
    with the capacity as ``float.hex``."""
    if group_by == "link":
        return [(f.link_id, f.peer_asn, f.capacity_gbps.hex(),
                 f.typical_high_hours, f.predicted_extra_high_hours,
                 f.affecting_link_id)
                for f in RiskAnalyzer(wan, model, threshold).analyze(
                    hours_of(samples), min_extra_hours)]
    typical = typical_hours_by_entry(wan, samples, threshold)
    return [(f.link_id, f.peer_asn, f.capacity_gbps.hex(),
             typical.get(f.link_id, 0), f.predicted_extra_high_hours,
             f.affecting_group)
            for f in GroupRiskAnalyzer(wan, model, threshold).analyze(
                hours_of(samples), group_by, min_extra_hours)]


def stated(findings):
    """``RiskAnalyzer`` findings in :func:`oracle_findings`' form."""
    return [(f.link_id, f.peer_asn, f.capacity_gbps.hex(),
             f.typical_high_hours, f.predicted_extra_high_hours,
             f.affecting_group) for f in findings]
