"""Congestion mitigation system and risk analysis.

The consumer of TIPSY's predictions: a utilization monitor that spots
congested peering links, a safe-withdrawal CMS that asks ``what_if``
before acting (so one withdrawal does not cascade into the §2
incident), Appendix C's Algorithm-1 links-at-risk analysis under link,
router, metro and peer outages, and the §8 de-peering study.  All of
them read an hour of traffic as one columnar :class:`TrafficSample`.
"""

from .monitor import (
    CongestionEvent,
    SECONDS_PER_HOUR,
    UtilizationMonitor,
    bytes_to_utilization,
)
from .mitigation import (
    CMSConfig,
    CongestionMitigationSystem,
    MitigationAction,
    TrafficSample,
)
from .risk import RiskAnalyzer, RiskFinding
from .depeering import DepeeringAnalyzer, DepeeringAssessment

__all__ = [
    "CongestionEvent", "SECONDS_PER_HOUR", "UtilizationMonitor",
    "bytes_to_utilization",
    "CMSConfig", "CongestionMitigationSystem", "MitigationAction",
    "TrafficSample",
    "RiskAnalyzer", "RiskFinding",
    "DepeeringAnalyzer", "DepeeringAssessment",
]
