"""Row formatting for every table in the paper's evaluation.

Each ``table*`` function takes evaluation outputs and returns printable
rows in the paper's layout (model, Top 1 %, Top 2 %, Top 3 %).  The
benchmarks print these rows next to the paper's numbers so the
reproduction can be eyeballed line by line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..cms.risk import RiskFinding
from ..topology.wan import CloudWAN
from .runner import AccuracyBlock, EvaluationResult

#: model display order used by the paper's accuracy tables
PAPER_MODEL_ORDER: Tuple[str, ...] = (
    "Oracle_A", "Hist_A",
    "Oracle_AP", "Hist_AP",
    "Oracle_AL", "Hist_AL",
    "Hist_AL+G",
    "Hist_AP/AL/A", "Hist_AL/AP/A",
)

#: Appendix A ordering (includes the Naive Bayes models)
NB_MODEL_ORDER: Tuple[str, ...] = (
    "Oracle_A", "Hist_A", "NB_A",
    "Oracle_AP", "Hist_AP",
    "Oracle_AL", "Hist_AL", "NB_AL", "Hist_AL/NB_AL",
    "Hist_AP/AL/A", "Hist_AL/AP/A",
)


@dataclass(frozen=True)
class AccuracyRow:
    """One row of a paper accuracy table."""

    model: str
    top1: float
    top2: float
    top3: float

    def formatted(self) -> str:
        return (f"{self.model:<16s} {self.top1 * 100:7.2f} "
                f"{self.top2 * 100:7.2f} {self.top3 * 100:7.2f}")


def accuracy_rows(block: AccuracyBlock,
                  order: Sequence[str] = PAPER_MODEL_ORDER,
                  ) -> List[AccuracyRow]:
    """Rows of an accuracy block in the paper's model order."""
    rows = []
    for name in order:
        per_k = block.rows.get(name)
        if per_k is None:
            continue
        rows.append(AccuracyRow(name, per_k.get(1, 0.0), per_k.get(2, 0.0),
                                per_k.get(3, 0.0)))
    return rows


def table4_overall(result: EvaluationResult) -> List[AccuracyRow]:
    """Table 4: overall prediction accuracy."""
    return accuracy_rows(result.overall)


def table5_outages_all(result: EvaluationResult) -> List[AccuracyRow]:
    """Table 5: accuracy for traffic affected by any link outage."""
    return accuracy_rows(result.outages_all)


def table6_outages_seen(result: EvaluationResult) -> List[AccuracyRow]:
    """Table 6: accuracy for outages also experienced in training."""
    return accuracy_rows(result.outages_seen)


def table7_outages_unseen(result: EvaluationResult) -> List[AccuracyRow]:
    """Table 7: accuracy for outages not experienced in training."""
    return accuracy_rows(result.outages_unseen)


def table9_nb_overall(result: EvaluationResult) -> List[AccuracyRow]:
    """Table 9 (Appendix A): overall accuracy including Naive Bayes."""
    return accuracy_rows(result.overall, NB_MODEL_ORDER)


def table10_nb_outages(result: EvaluationResult) -> List[AccuracyRow]:
    """Table 10 (Appendix A): outage accuracy including Naive Bayes."""
    return accuracy_rows(result.outages_all, NB_MODEL_ORDER)


# -- Tables 12 / 15: links at risk ------------------------------------------------


@dataclass(frozen=True)
class RiskRow:
    """One row of the links-at-risk tables (12 and 15)."""

    router: str
    peer: str
    bandwidth: str
    typical_high_hours: int
    predicted_high_hours: int
    affecting_router: str
    affecting_peer: str
    affecting_bandwidth: str

    def formatted(self) -> str:
        return (f"{self.router:<10s} {self.peer:<8s} {self.bandwidth:>6s} "
                f"{self.typical_high_hours:>7d} {self.predicted_high_hours:>9d}   "
                f"{self.affecting_router:<10s} {self.affecting_peer:<8s} "
                f"{self.affecting_bandwidth:>6s}")


def _bw(capacity_gbps: float) -> str:
    return f"{capacity_gbps:g}G"


def risk_rows(findings: Sequence[RiskFinding], wan: CloudWAN,
              limit: Optional[int] = None) -> List[RiskRow]:
    """Tables 12/15 rows from single-link risk-analysis findings."""
    rows: List[RiskRow] = []
    for finding in findings[:limit]:
        link = wan.link(finding.link_id)
        affecting = wan.link(finding.affecting_group)
        rows.append(RiskRow(
            router=link.router,
            peer=f"AS{finding.peer_asn}",
            bandwidth=_bw(finding.capacity_gbps),
            typical_high_hours=finding.typical_high_hours,
            predicted_high_hours=finding.predicted_extra_high_hours,
            affecting_router=affecting.router,
            affecting_peer=f"AS{affecting.peer_asn}",
            affecting_bandwidth=_bw(affecting.capacity_gbps),
        ))
    return rows


# -- Table 3 / Table 11: model costs --------------------------------------------------


@dataclass(frozen=True)
class CostRow:
    """Measured model cost (Table 3 / Table 11 empirical counterpart)."""

    model: str
    train_seconds: float
    predict_micros: float
    size_entries: int

    def formatted(self) -> str:
        return (f"{self.model:<16s} {self.train_seconds:9.3f}s "
                f"{self.predict_micros:9.1f}us {self.size_entries:>10d}")


def format_block(title: str, rows: Sequence[object], header: str) -> str:
    """A printable table block with title and header."""
    lines = [f"== {title} ==", header]
    lines += [row.formatted() for row in rows]
    return "\n".join(lines)

ACCURACY_HEADER = f"{'Model':<16s} {'Top 1 %':>7s} {'Top 2 %':>7s} {'Top 3 %':>7s}"
RISK_HEADER = (f"{'Router':<10s} {'Peer':<8s} {'BW':>6s} {'Typical':>7s} "
               f"{'Predicted':>9s}   {'Affecting':<10s} {'Peer':<8s} {'BW':>6s}")
COST_HEADER = f"{'Model':<16s} {'Training':>10s} {'Predict':>11s} {'Size':>10s}"
