"""The congestion mitigation system (paper §4.4).

When the monitor flags a congested ingress link, CMS:

1. identifies the fewest destination prefixes (largest first) at the link
   whose shift would bring utilization back under the target,
2. asks TIPSY where each prefix's flows would land if withdrawn — one
   ``what_if(flows, withdrawn, k)`` call, withdrawn = the congested link
   plus anything already down, answered alike by a bare model, a
   :class:`~repro.core.service.TipsyService` or a sharded
   :class:`~repro.serve.daemon.ServeDaemon`,
3. withdraws only prefixes whose predicted spill keeps every other link
   under the safety threshold — the whole point of TIPSY: "only inject
   such withdrawal messages when, with high probability, the mitigated
   traffic will shift to new peering links with sufficient spare capacity",
4. re-announces withdrawn prefixes once the link has calmed down.

Without a predictor (``predictor=None``) CMS reverts to its pre-TIPSY
behaviour: withdraw blindly and chase the resulting cascade — which is
exactly the §2 incident, reproduced in ``examples/cascade_incident.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence, Set, Tuple)

import numpy as np

from ..bgp.state import AdvertisementState
from ..core.base import SpillPredictor
from ..pipeline.aggregation import first_seen_sums
from ..pipeline.records import FlowContext
from ..topology.wan import CloudWAN
from .monitor import CongestionEvent, UtilizationMonitor, capacity_bytes


class TrafficSample(NamedTuple):
    """One sample of observed traffic for CMS decision making, as aligned
    columns: row ``i`` is ``bytes[i]`` of the flow ``contexts[flow_rows[i]]``
    toward ``dest_prefix_ids[i]``, observed on ``link_ids[i]``."""

    link_ids: np.ndarray         # int64
    dest_prefix_ids: np.ndarray  # int64
    flow_rows: np.ndarray        # int64, index into contexts
    bytes: np.ndarray            # float64
    contexts: Sequence[FlowContext]


#: a congested link's flows of one prefix, as (context, bytes) in
#: sample order: what a spill prediction is asked about
_Flows = Sequence[Tuple[FlowContext, float]]


def first_seen_totals(keys: np.ndarray, weights: np.ndarray) -> Dict[int, float]:
    """Per-key sums of ``weights``, keys in first-seen order: bit for bit
    the running ``totals.get(key, 0.0) + weight`` of a walk in row order
    (``first_seen_sums`` adds with ``bincount``, in row order)."""
    rep, sums = first_seen_sums([keys], weights)
    return dict(zip(keys[rep].tolist(), sums.tolist()))


def running_sum(values: Iterable[float]) -> float:
    """``0.0 + v0 + v1 + ...`` in order on every interpreter (from 3.12
    the builtin ``sum`` of floats compensates, and can differ by an ulp)."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class MitigationAction:
    """A CMS decision, for the operator audit log."""

    sample_index: int
    kind: str                 # "withdraw" | "reannounce" | "skip-unsafe"
    link_id: int
    dest_prefix_id: int
    #: the predicted ``what_if`` spill, by link; bytes no link would take
    #: appear under link ``-1``, which the safety check ignores (it has
    #: no capacity)
    predicted_spill: Tuple[Tuple[int, float], ...] = ()
    note: str = ""


@dataclass
class CMSConfig:
    """CMS behaviour knobs (paper defaults where stated)."""

    threshold: float = 0.85        # trigger utilization (paper)
    sustain_samples: int = 1       # consecutive samples (paper: 4 minutes)
    target: float = 0.70           # shift enough traffic to get under this
    safety: float = 0.85           # predicted spill must keep links under this
    # re-announce a withdrawn prefix once its total observed volume has
    # fallen to this fraction of what it was at withdrawal time (the
    # paper re-announces "when traffic volumes have returned to normal")
    reannounce_volume_fraction: float = 0.70
    prediction_k: int = 3
    max_withdrawals_per_event: int = 4
    # when a single-link withdrawal would overload another link, plan the
    # full set of links to withdraw from simultaneously (the §2 incident's
    # "better option": withdraw at I1-I4 at once instead of cascading)
    coordinated: bool = True
    max_coordinated_links: int = 6


class CongestionMitigationSystem:
    """Closed-loop ingress congestion mitigation over an advertisement state."""

    def __init__(
        self,
        wan: CloudWAN,
        config: Optional[CMSConfig] = None,
        predictor: Optional[SpillPredictor] = None,
        period_seconds: float = 3600.0,
    ):
        self.wan = wan
        self.config = config or CMSConfig()
        self.predictor = predictor
        self.monitor = UtilizationMonitor(
            {l.link_id: l.capacity_gbps for l in wan.links},
            threshold=self.config.threshold,
            sustain_samples=self.config.sustain_samples,
            period_seconds=period_seconds,
        )
        self.actions: List[MitigationAction] = []
        # (prefix, link) -> prefix's total volume at withdrawal time;
        # pairs we withdrew and still owe a re-announcement
        self._owed: Dict[Tuple[int, int], float] = {}

    # -- main entry point ---------------------------------------------------------

    def handle_sample(
        self,
        sample_index: int,
        state: AdvertisementState,
        sample: TrafficSample,
    ) -> List[MitigationAction]:
        """Process one sample of traffic; possibly mutate ``state``.

        Returns the actions taken this sample (also appended to
        :attr:`actions`).
        """
        link_bytes = first_seen_totals(sample.link_ids, sample.bytes)
        prefix_bytes = first_seen_totals(sample.dest_prefix_ids, sample.bytes)

        taken: List[MitigationAction] = []
        taken.extend(self._maybe_reannounce(sample_index, state, prefix_bytes))
        for event in self.monitor.observe(sample_index, link_bytes):
            taken.extend(self._mitigate(sample_index, state, sample,
                                        link_bytes, prefix_bytes, event))
        self.actions.extend(taken)
        return taken

    # -- mitigation ------------------------------------------------------------------

    def _mitigate(
        self,
        sample_index: int,
        state: AdvertisementState,
        sample: TrafficSample,
        link_bytes: Mapping[int, float],
        prefix_bytes: Mapping[int, float],
        event: CongestionEvent,
    ) -> List[MitigationAction]:
        link_id = event.link_id
        excess = link_bytes.get(link_id, 0.0) - self.config.target * (
            capacity_bytes(self.monitor.capacities[link_id],
                           self.monitor.period_seconds))
        if excess <= 0.0:
            return []

        taken: List[MitigationAction] = []
        shifted = 0.0
        withdrawals = 0
        for prefix_id, flows in self._candidates(sample, link_id):
            if shifted >= excess:
                break
            if withdrawals >= self.config.max_withdrawals_per_event:
                break
            if not state.is_available(prefix_id, link_id):
                continue
            volume = running_sum(bytes_ for _, bytes_ in flows)
            spill = self._predict_spill(state, prefix_id, link_id, flows)
            if spill is not None and self._overloaded(spill, link_bytes):
                plan = None
                if self.config.coordinated:
                    plan = self._plan_coordinated(
                        state, prefix_id, link_id, flows, link_bytes)
                if plan is None:
                    taken.append(MitigationAction(
                        sample_index, "skip-unsafe", link_id, prefix_id,
                        predicted_spill=tuple(sorted(spill.items())),
                        note="predicted spill exceeds safety threshold"))
                    continue
                for planned_link in sorted(plan):
                    state.withdraw(prefix_id, planned_link)
                    self._owed[(prefix_id, planned_link)] = (
                        prefix_bytes.get(prefix_id, 0.0))
                    taken.append(MitigationAction(
                        sample_index, "withdraw-coordinated", planned_link,
                        prefix_id,
                        note=f"coordinated set {sorted(plan)}"))
                withdrawals += 1
                shifted += volume
                continue
            state.withdraw(prefix_id, link_id)
            self._owed[(prefix_id, link_id)] = prefix_bytes.get(prefix_id, 0.0)
            withdrawals += 1
            shifted += volume
            taken.append(MitigationAction(
                sample_index, "withdraw", link_id, prefix_id,
                predicted_spill=tuple(sorted((spill or {}).items())),
                note=f"shift {volume:.3g}B of {excess:.3g}B excess"))
        return taken

    @staticmethod
    def _candidates(sample: TrafficSample, link_id: int
                    ) -> List[Tuple[int, _Flows]]:
        """The prefixes seen at ``link_id`` with their flows there, the
        largest total first (fewest withdrawals), ties in first-seen
        order.  Only the link's rows become python objects."""
        at_link = sample.link_ids == link_id
        contexts = sample.contexts
        by_prefix: Dict[int, List[Tuple[FlowContext, float]]] = {}
        for prefix_id, row, bytes_ in zip(
                sample.dest_prefix_ids[at_link].tolist(),
                sample.flow_rows[at_link].tolist(),
                sample.bytes[at_link].tolist()):
            by_prefix.setdefault(prefix_id, []).append((contexts[row], bytes_))
        return sorted(by_prefix.items(),
                      key=lambda kv: -running_sum(bytes_ for _, bytes_ in kv[1]))

    def _plan_coordinated(
        self,
        state: AdvertisementState,
        prefix_id: int,
        link_id: int,
        flows: _Flows,
        link_bytes: Mapping[int, float],
    ) -> Optional[Set[int]]:
        """Grow the withdrawal set until the predicted spill is safe.

        Starts from the congested link and iteratively adds each link the
        prediction says would overload, re-predicting with the enlarged
        availability prior — a what-if loop over TIPSY, exactly the §2
        post-incident analysis turned into an algorithm.  Returns None if
        no safe set exists within the size budget.
        """
        if self.predictor is None:
            return None
        plan: Set[int] = {link_id}
        for _ in range(self.config.max_coordinated_links):
            unavailable = (
                plan | state.link_outages | state.withdrawn_links(prefix_id))
            overloaded = self._overloaded(
                self.predictor.what_if(flows, unavailable,
                                       self.config.prediction_k),
                link_bytes)
            if not overloaded:
                return plan
            plan.update(overloaded)
            if len(plan) > self.config.max_coordinated_links:
                return None
        return None

    def _predict_spill(
        self,
        state: AdvertisementState,
        prefix_id: int,
        link_id: int,
        flows: _Flows,
    ) -> Optional[Dict[int, float]]:
        """Predicted per-link byte spill if a prefix is withdrawn at a link.

        None when there is no predictor (pre-TIPSY CMS withdraws blindly).
        """
        if self.predictor is None:
            return None
        return self.predictor.what_if(
            flows,
            {link_id} | state.link_outages | state.withdrawn_links(prefix_id),
            self.config.prediction_k)

    def _overloaded(self, spill: Mapping[int, float],
                    link_bytes: Mapping[int, float]) -> List[int]:
        """The links ``spill`` would push over the safety threshold, in
        spill order; links without a capacity (link ``-1``) are skipped."""
        capacities = self.monitor.capacities
        return [target for target, extra in spill.items()
                if target in capacities
                and self.monitor.utilization(
                    target, link_bytes.get(target, 0.0) + extra)
                > self.config.safety]

    # -- re-announcement ----------------------------------------------------------------

    def _maybe_reannounce(
        self,
        sample_index: int,
        state: AdvertisementState,
        prefix_bytes: Mapping[int, float],
    ) -> List[MitigationAction]:
        """Restore withdrawals whose prefix traffic has calmed down.

        The congested link now carries little traffic by construction, so
        its own utilization says nothing; what matters is whether the
        withdrawn prefix's demand (observed wherever it currently lands)
        has returned to normal.
        """
        taken: List[MitigationAction] = []
        fraction = self.config.reannounce_volume_fraction
        for (prefix_id, link_id), at_withdrawal in sorted(self._owed.items()):
            current = prefix_bytes.get(prefix_id, 0.0)
            if at_withdrawal <= 0.0 or current < fraction * at_withdrawal:
                state.announce(prefix_id, link_id)
                del self._owed[(prefix_id, link_id)]
                taken.append(MitigationAction(
                    sample_index, "reannounce", link_id, prefix_id,
                    note=(f"prefix volume {current:.3g}B below "
                          f"{fraction:.2f} of {at_withdrawal:.3g}B")))
        return taken

    @property
    def pending_reannouncements(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset(self._owed)
