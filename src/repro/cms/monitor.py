"""Ingress link utilization monitoring (paper §4.4).

The production CMS triggers when a link exceeds 85% ingress utilization
for at least 4 minutes.  The monitor here is time-unit agnostic: it
consumes utilization samples (any fixed period — minutes in unit tests,
hours in the scenario loop) and raises a congestion event after a
configurable number of consecutive over-threshold samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

SECONDS_PER_HOUR = 3600.0


def capacity_bytes(capacity_gbps: float,
                   period_seconds: float = SECONDS_PER_HOUR) -> float:
    """Bytes a link of ``capacity_gbps`` carries at full rate over a
    sample period."""
    return capacity_gbps * 1e9 / 8.0 * period_seconds


def bytes_to_utilization(bytes_: float, capacity_gbps: float,
                         period_seconds: float = SECONDS_PER_HOUR) -> float:
    """Average utilization fraction over a sample period."""
    if capacity_gbps <= 0.0:
        raise ValueError("capacity must be positive")
    return bytes_ / capacity_bytes(capacity_gbps, period_seconds)


@dataclass(frozen=True)
class CongestionEvent:
    """A sustained over-threshold condition on one link."""

    link_id: int
    sample_index: int
    utilization: float


class UtilizationMonitor:
    """Raises :class:`CongestionEvent` after sustained high utilization."""

    def __init__(
        self,
        capacities: Mapping[int, float],
        threshold: float = 0.85,
        sustain_samples: int = 1,
        period_seconds: float = SECONDS_PER_HOUR,
    ):
        """
        Args:
            capacities: link id -> capacity in Gbps.
            threshold: utilization fraction that counts as congested
                (paper default 0.85).
            sustain_samples: consecutive over-threshold samples before an
                event fires (paper: 4 one-minute samples; with hourly
                samples 1 is the natural equivalent).
            period_seconds: duration of one sample.
        """
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if sustain_samples < 1:
            raise ValueError("sustain_samples must be >= 1")
        self.capacities = dict(capacities)
        self.threshold = threshold
        self.sustain_samples = sustain_samples
        self.period_seconds = period_seconds
        self._streak: Dict[int, int] = {}

    def utilization(self, link_id: int, bytes_: float) -> float:
        return bytes_to_utilization(bytes_, self.capacities[link_id],
                                    self.period_seconds)

    def observe(self, sample_index: int,
                link_bytes: Mapping[int, float]) -> List[CongestionEvent]:
        """Feed one sample of per-link bytes; returns events that fired.

        Links missing from ``link_bytes`` are treated as carrying zero
        bytes (their streak resets).
        """
        events: List[CongestionEvent] = []
        for link_id, capacity in self.capacities.items():
            bytes_ = link_bytes.get(link_id, 0.0)
            util = bytes_to_utilization(bytes_, capacity, self.period_seconds)
            if util > self.threshold:
                streak = self._streak.get(link_id, 0) + 1
                self._streak[link_id] = streak
                if streak >= self.sustain_samples:
                    events.append(CongestionEvent(link_id, sample_index, util))
            else:
                self._streak[link_id] = 0
        return events

    def reset(self, link_id: Optional[int] = None) -> None:
        """Clear streak state for one link, or all links."""
        if link_id is None:
            self._streak.clear()
        else:
            self._streak.pop(link_id, None)
