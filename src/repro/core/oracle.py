"""The evaluation oracle (paper §5.1.2, Figure 5).

The oracle has perfect knowledge of the *testing* data — it knows exactly
which link received how many bytes for every flow — but is restricted to
returning at most ``k`` links per flow.  Its accuracy is the theoretical
ceiling for any model at that ``k``; comparing a model against the oracle
of the same feature set shows how much of the feasible signal the model
captures.

Mechanically it is a historical model trained on the evaluation records
themselves, built as every served model is: :func:`oracle_models` folds
the test actuals into a ``DayCounts`` and hands each projection to
``OracleModel.from_arrays``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .accuracy import ActualsMap
from .features import FEATURES_A, FEATURES_AL, FEATURES_AP, FeatureSet
from .historical import HistoricalModel
from .training import DayCounts


class OracleModel(HistoricalModel):
    """A k-restricted perfect-knowledge predictor over test data."""

    name_prefix = "Oracle"


def oracle_models(
    actuals_maps: Iterable[ActualsMap],
    feature_sets: Sequence[FeatureSet] = (FEATURES_A, FEATURES_AP,
                                          FEATURES_AL),
) -> List[OracleModel]:
    """One oracle per feature set over several test slices' actuals.

    Entries are folded in each map's own order, maps in the order given,
    so every sum associates as an entry-by-entry walk would: a (context,
    link) across the maps first, then contexts onto a feature key in
    first-seen order.  Entries of no bytes are skipped.
    """
    entries = [(context, link, bytes_) for actuals in actuals_maps
               for context, by_link in actuals.items()
               for link, bytes_ in by_link.items() if bytes_ > 0.0]
    counts = DayCounts.fold(*zip(*entries)) if entries else DayCounts()
    return [OracleModel.from_arrays(counts.project(fs), fs)
            for fs in feature_sets]
