"""Congestion mitigation system and risk analysis.

The consumer of TIPSY's predictions: a utilization monitor that spots
congested peering links, a safe-withdrawal CMS that asks ``what_if``
before acting (so one withdrawal does not cascade into the §2
incident), Appendix C's Algorithm-1 links-at-risk analysis at link,
router, and site granularity, and the §8 de-peering study.
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
from .risk import GroupRiskAnalyzer, GroupRiskFinding, RiskAnalyzer, RiskFinding
from .depeering import DepeeringAnalyzer, DepeeringAssessment

__all__ = [
    "CongestionEvent", "SECONDS_PER_HOUR", "UtilizationMonitor",
    "bytes_to_utilization",
    "CMSConfig", "CongestionMitigationSystem", "MitigationAction",
    "TrafficSample",
    "GroupRiskAnalyzer", "GroupRiskFinding", "RiskAnalyzer", "RiskFinding",
    "DepeeringAnalyzer", "DepeeringAssessment",
]
