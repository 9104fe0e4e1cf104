"""The paper's published numbers, as data.

Reference values transcribed from the paper's evaluation tables so that
benchmarks, the CLI and EXPERIMENTS.md can print measured results next
to what the paper reports.  All values are byte-weighted accuracies in
[0, 1]; the key is (model name, k).

Tables 4-7 are the November-December 2021 Azure WAN results; Tables 9
and 10 are the October 2020 Naive Bayes comparison (Appendix A).
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

AccuracyRef = Dict[str, Dict[int, float]]


def _table(rows: Mapping[str, Tuple[float, float, float]]) -> AccuracyRef:
    return {
        model: {1: t1 / 100.0, 2: t2 / 100.0, 3: t3 / 100.0}
        for model, (t1, t2, t3) in rows.items()
    }


#: Table 4 — overall prediction accuracy
PAPER_TABLE4: AccuracyRef = _table({
    "Oracle_A": (61.74, 84.03, 90.55),
    "Hist_A": (59.36, 82.07, 89.02),
    "Oracle_AP": (80.66, 98.13, 99.46),
    "Hist_AP": (75.62, 95.28, 97.09),
    "Oracle_AL": (72.31, 93.81, 97.34),
    "Hist_AL": (69.62, 91.85, 95.73),
    "Hist_AL+G": (69.62, 91.93, 95.86),
    "Hist_AP/AL/A": (76.02, 95.95, 97.88),
    "Hist_AL/AP/A": (69.64, 91.87, 95.76),
})

#: Table 5 — all link outages
PAPER_TABLE5: AccuracyRef = _table({
    "Oracle_A": (78.67, 86.16, 92.35),
    "Hist_A": (55.69, 62.92, 67.45),
    "Oracle_AP": (94.25, 98.41, 99.56),
    "Hist_AP": (58.93, 62.88, 64.08),
    "Oracle_AL": (86.04, 93.40, 97.33),
    "Hist_AL": (60.74, 67.54, 70.65),
    "Hist_AL+G": (62.71, 71.12, 76.42),
    "Hist_AP/AL/A": (64.64, 70.18, 73.44),
    "Hist_AL/AP/A": (60.84, 67.73, 71.58),
})

#: Table 6 — seen outages
PAPER_TABLE6: AccuracyRef = _table({
    "Oracle_A": (82.04, 89.34, 92.69),
    "Hist_A": (77.25, 82.82, 85.42),
    "Oracle_AP": (95.59, 99.01, 99.89),
    "Hist_AP": (88.02, 91.08, 92.52),
    "Oracle_AL": (90.15, 96.35, 98.52),
    "Hist_AL": (84.49, 89.61, 91.97),
    "Hist_AL+G": (84.62, 89.77, 92.43),
    "Hist_AP/AL/A": (89.25, 92.82, 94.57),
    "Hist_AL/AP/A": (84.52, 89.66, 92.04),
})

#: Table 7 — unseen outages
PAPER_TABLE7: AccuracyRef = _table({
    "Oracle_A": (76.14, 83.78, 92.09),
    "Hist_A": (39.52, 47.99, 53.97),
    "Oracle_AP": (93.25, 97.97, 99.31),
    "Hist_AP": (37.10, 41.73, 42.75),
    "Oracle_AL": (82.95, 91.19, 96.44),
    "Hist_AL": (42.92, 50.99, 54.66),
    "Hist_AL+G": (46.33, 57.31, 64.56),
    "Hist_AP/AL/A": (46.17, 53.20, 57.60),
    "Hist_AL/AP/A": (43.07, 51.27, 56.23),
})

#: Table 9 — overall accuracy with Naive Bayes (October 2020 data)
PAPER_TABLE9: AccuracyRef = _table({
    "Oracle_A": (66.29, 86.10, 91.84),
    "Hist_A": (63.21, 83.47, 89.98),
    "NB_A": (60.11, 80.55, 87.48),
    "Oracle_AP": (77.05, 94.82, 97.60),
    "Hist_AP": (73.54, 92.88, 96.01),
    "Oracle_AL": (75.69, 94.96, 98.02),
    "Hist_AL": (70.21, 90.74, 94.39),
    "NB_AL": (67.25, 88.56, 93.29),
    "Hist_AL/NB_AL": (70.85, 91.65, 95.47),
    "Hist_AP/AL/A": (73.70, 93.24, 96.41),
    "Hist_AL/AP/A": (71.04, 91.82, 95.63),
})

#: Table 10 — outage accuracy with Naive Bayes (October 2020 data)
PAPER_TABLE10: AccuracyRef = _table({
    "Oracle_A": (57.10, 80.84, 86.87),
    "Hist_A": (34.17, 51.18, 66.53),
    "NB_A": (29.68, 45.67, 51.87),
    "Oracle_AP": (68.70, 90.54, 93.57),
    "Hist_AP": (30.01, 51.00, 71.00),
    "Oracle_AL": (68.19, 90.64, 94.71),
    "Hist_AL": (41.46, 59.81, 73.82),
    "NB_AL": (38.50, 56.08, 65.07),
    "Hist_AL/NB_AL": (38.97, 59.08, 74.74),
    "Hist_AP/AL/A": (37.48, 59.14, 79.54),
    "Hist_AL/AP/A": (41.63, 60.75, 75.76),
})

#: scalar facts the paper states outside its tables
PAPER_FACTS = {
    # Figure 2: fraction of bytes from directly-peering source ASes
    "fig2_one_hop_bytes": 0.60,
    # Figure 2: fraction of bytes from ASes at most 3 hops away
    "fig2_within_three_hops": 0.982,
    # Figure 6: fraction of links with >= 1 outage per year
    "fig6_links_with_yearly_outage": 0.80,
    # Figure 7: fraction of links with an outage in the last ~50 days
    "fig7_links_recent_outage": 0.33,
    # §5.3.2: unseen outages' share of outage-affected bytes
    "unseen_outage_byte_fraction": 0.57,
    # headline claim: top-3 accuracy after BGP withdrawals
    "headline_withdrawal_top3": 0.76,
}


def format_comparison(measured: Mapping[str, Mapping[int, float]],
                      reference: AccuracyRef, title: str,
                      ks: Tuple[int, ...] = (3,)) -> str:
    """A printable measured-vs-paper block (top-3 by default)."""
    lines = [f"== {title} (measured vs paper, top-{'/'.join(map(str, ks))}) ==",
             f"{'Model':<16s}" + "".join(
                 f"  k={k}: meas  paper  delta" for k in ks)]
    for model in reference:
        got = measured.get(model)
        if got is None:
            continue
        cells = "".join(
            f"  {got[k] * 100:8.2f} {reference[model][k] * 100:6.2f} "
            f"{(got[k] - reference[model][k]) * 100:+6.2f}"
            for k in ks)
        lines.append(f"{model:<16s}{cells}")
    return "\n".join(lines)
