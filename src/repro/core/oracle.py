"""The evaluation oracle (paper §5.1.2, Figure 5).

The oracle has perfect knowledge of the *testing* data — it knows exactly
which link received how many bytes for every flow — but is restricted to
returning at most ``k`` links per flow.  Its accuracy is the theoretical
ceiling for any model at that ``k``; comparing a model against the oracle
of the same feature set shows how much of the feasible signal the model
captures.

Mechanically it is a historical model trained on the evaluation records
themselves, built as every served model is: :func:`oracle_models` folds
the test slices' keyed tables into a ``DayCounts`` and hands each
projection to ``OracleModel.from_arrays``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .features import FEATURES_A, FEATURES_AL, FEATURES_AP, FeatureSet
from .historical import HistoricalModel
from .training import KEY_NAMES, DayCounts, KeyedTable, fold_keyed


class OracleModel(HistoricalModel):
    """A k-restricted perfect-knowledge predictor over test data."""

    name_prefix = "Oracle"


def oracle_models(
    tables: Iterable[KeyedTable],
    feature_sets: Sequence[FeatureSet] = (FEATURES_A, FEATURES_AP,
                                          FEATURES_AL),
) -> List[OracleModel]:
    """One oracle per feature set over several test slices' keyed tables
    (``k0..k4`` the flow context, ``k5`` the link, ``value`` the bytes).

    The tables are folded in the order given (``fold_keyed``), so every
    sum associates as a row-by-row walk would: a (context, link) across
    the tables first, then contexts onto a feature key in first-seen
    order.
    """
    counts = DayCounts.from_arrays(fold_keyed(list(tables), len(KEY_NAMES)))
    return [OracleModel.from_arrays(counts.project(fs), fs)
            for fs in feature_sets]
