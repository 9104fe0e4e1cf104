"""Peering links at risk under outages (paper Appendix C).

Implements the paper's Algorithm 1: for every hour of a test window and
every failure group — a single peering link, as the paper runs it, or
every link on one router, in one metro, or of one peer, the "single
router or single site outages" it says the same machinery analyzes —
predict where the group's flows would land if it were down; add that
induced load to each surviving link's actual load; report links whose
predicted utilization crosses the threshold in hours where it otherwise
would not have — the operationally-surprising rows of paper Tables 12
and 15.  An hour is the CMS's :class:`~repro.cms.mitigation.TrafficSample`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple, Union

from ..core.base import IngressModel
from ..pipeline.records import FlowContext
from ..topology.wan import CloudWAN
from ..util import running_sum
from .mitigation import TrafficSample, first_seen_totals
from .monitor import capacity_bytes

#: a failure group: a link id, or a router, metro or ``AS<peer>`` name
Group = Union[int, str]


@dataclass(frozen=True)
class RiskFinding:
    """One at-risk link under one group's outage (a table row)."""

    link_id: int
    peer_asn: int
    capacity_gbps: float
    typical_high_hours: int       # hours actually over threshold
    predicted_extra_high_hours: int  # extra over-threshold hours if outage
    #: the failed group: the affecting link's id under ``group_by="link"``
    affecting_group: Group


class RiskAnalyzer:
    """Runs Algorithm 1 over hourly traffic samples.

    The one spill sum outside :func:`~repro.core.base.spill_from_groups`,
    on purpose: ``_pred_cache`` keeps each (context, failed links)'s
    normalised weights across all the hours analysed, where an uncached
    ``what_if`` per hour would predict them again — the same findings,
    1.7x (Hist_AL) to 2.3x (AL+G) slower on the medium world's 72 test
    hours (best of three, 2-vCPU VM).
    """

    def __init__(self, wan: CloudWAN, model: IngressModel,
                 threshold: float = 0.70, prediction_k: int = 3):
        self.wan = wan
        self.model = model
        self.threshold = threshold
        self.prediction_k = prediction_k
        self._capacity_bytes: Dict[int, float] = {
            l.link_id: capacity_bytes(l.capacity_gbps) for l in wan.links}
        # prediction cache: (context, failed links) -> ((link, weight), ...)
        self._pred_cache: Dict[Tuple[FlowContext, FrozenSet[int]],
                               Tuple[Tuple[int, float], ...]] = {}

    def group_of(self, link_id: int, group_by: str) -> Group:
        link = self.wan.link(link_id)
        if group_by == "link":
            return link_id
        if group_by == "router":
            return link.router
        if group_by == "metro":
            return link.metro
        if group_by == "peer":
            return f"AS{link.peer_asn}"
        raise ValueError(f"unknown grouping {group_by!r}")

    def _shift(self, context: FlowContext,
               down: FrozenSet[int]) -> Tuple[Tuple[int, float], ...]:
        key = (context, down)
        cached = self._pred_cache.get(key)
        if cached is None:
            predictions = self.model.predict(context, self.prediction_k,
                                             down)
            total = running_sum(p.score for p in predictions)
            cached = tuple(
                (p.link_id, p.score / total) for p in predictions
            ) if total > 0.0 else ()
            self._pred_cache[key] = cached
        return cached

    def analyze(
        self,
        samples: Iterable[TrafficSample],
        group_by: str = "link",
        min_extra_hours: int = 1,
    ) -> List[RiskFinding]:
        """Run Algorithm 1, failing each group of ``group_by`` in turn.

        Args:
            samples: one :class:`TrafficSample` per hour analysed.
            group_by: ``link`` (the paper's single-link outages),
                ``router``, ``metro`` or ``peer``.
            min_extra_hours: drop findings with fewer predicted extra
                over-threshold hours.

        Returns:
            Findings sorted by predicted extra hours, descending (the
            paper sorts its table the same way), then by link and group.
        """
        group_of = {l.link_id: self.group_of(l.link_id, group_by)
                    for l in self.wan.links}
        down_of: Dict[Group, FrozenSet[int]] = {}
        for link_id, group in group_of.items():
            down_of[group] = down_of.get(group, frozenset()) | {link_id}
        threshold = self.threshold
        capacity = self._capacity_bytes
        # per (affected link, failed group): count of extra high hours
        extra_hours: Dict[Tuple[int, Group], int] = {}
        typical_hours: Dict[int, int] = {}

        for sample in samples:
            actual = first_seen_totals(sample.link_ids, sample.bytes)
            over_actual: Set[int] = set()
            for link, bytes_ in actual.items():
                if bytes_ / capacity[link] >= threshold:
                    over_actual.add(link)
                    typical_hours[link] = typical_hours.get(link, 0) + 1

            contexts = sample.contexts
            by_group: Dict[Group, List[Tuple[FlowContext, float]]] = {}
            for link, row, bytes_ in zip(sample.link_ids.tolist(),
                                         sample.flow_rows.tolist(),
                                         sample.bytes.tolist()):
                by_group.setdefault(group_of[link], []).append(
                    (contexts[row], bytes_))

            # what-if: each group with traffic goes down for this hour
            for group, flows in by_group.items():
                down = down_of[group]
                induced: Dict[int, float] = {}
                for context, bytes_ in flows:
                    for target, weight in self._shift(context, down):
                        induced[target] = induced.get(target, 0.0) + (
                            bytes_ * weight)
                for b_link, add in induced.items():
                    if b_link in down or b_link in over_actual:
                        continue
                    if (actual.get(b_link, 0.0) + add) / capacity[b_link] >= threshold:
                        key = (b_link, group)
                        extra_hours[key] = extra_hours.get(key, 0) + 1

        findings = [
            RiskFinding(b_link, self.wan.link(b_link).peer_asn,
                        self.wan.link(b_link).capacity_gbps,
                        typical_hours.get(b_link, 0), count, group)
            for (b_link, group), count in extra_hours.items()
            if count >= min_extra_hours]
        findings.sort(key=lambda f: (-f.predicted_extra_high_hours,
                                     f.link_id, f.affecting_group))
        return findings
