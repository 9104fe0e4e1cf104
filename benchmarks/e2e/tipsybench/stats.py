"""Order statistics the benchmark reports, and nothing cleverer.

Percentiles are nearest-rank (the value of a real sample, never an
interpolation), and a tail percentile is refused unless at least
``MIN_BEYOND`` samples lie beyond it — a p99 over 300 samples is three
points, which is noise, not a tail.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: samples that must lie beyond a percentile for it to be reported
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample does not support the requested percentile."""


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p < 100) of ``samples``.

    Raises :class:`TooFewSamples` when fewer than ``MIN_BEYOND`` samples
    lie beyond the percentile (above it for p >= 50, below otherwise).
    """
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(p / 100.0 * n))
    beyond = n - rank if p >= 50.0 else rank - 1
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} of {n} samples leaves {beyond} beyond it "
            f"(need {MIN_BEYOND})")
    return float(ordered[rank - 1])


def median(samples: Sequence[float]) -> float:
    """Plain median; any non-empty sample supports it."""
    if not len(samples):
        raise TooFewSamples("median of an empty sample")
    return float(statistics.median(samples))


def mean_of_group_medians(samples: Sequence[float],
                          groups: Sequence[int]) -> float:
    """Mean over the groups of each group's median sample.

    ``what_if`` questions differ in size by an order of magnitude, so
    their pooled times form one cluster per question: a pooled median
    jumps between the two middle clusters from run to run, and so does
    the median of the per-question medians (it is the mean of the two
    middle questions).  The mean of the per-question medians moves with
    every question and jumps with none.
    """
    by_group: Dict[int, List[float]] = {}
    for sample, group in zip(samples, groups):
        by_group.setdefault(int(group), []).append(float(sample))
    return statistics.fmean(median(group) for group in by_group.values())


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) < 2:
        only = float(samples[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return float(q1), float(q2), float(q3)


def ratio(useful: float, wasted: float) -> float:
    """``useful / (useful + wasted)``, 0 when nothing happened."""
    return useful / (useful + wasted) if useful + wasted else 0.0
