"""The record-path counts the columnar ``DayCounts`` is tested against.

``CountsAccumulator`` is the ``Dict[(FlowContext, link), float]`` form
every model in the tree once trained from: ``add`` / ``consume_hour``
walk observations one at a time with a running ``counts.get(key, 0.0) +
bytes`` sum, and ``fit`` hands each key in insertion order to the
dict oracles' ``observe`` (``tests/core/historical_oracle.py``,
``tests/core/naive_bayes_oracle.py``), so the reference shares no code
with the table builds.  ``repro.core.training.DayCounts`` and the offline evaluation's
``HistoricalModel.from_arrays(counts.project(fs), fs)`` builds replaced
it; the property, window-equivalence and differential suites compare
them against it bit for bit, as ``tests/core/spill_reference.py`` is
for the grouped spill sum and ``tests/cms/entry_oracle.py`` for the
columnar CMS sample.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Sequence, Tuple, Union

import numpy as np

from repro.pipeline.records import AggRecord, FlowContext
from repro.store.codec import encode_keyed_table
from tests.core.historical_oracle import DictHistoricalModel
from tests.core.naive_bayes_oracle import DictNaiveBayesModel

if TYPE_CHECKING:
    from repro.core.features import FeatureSet

#: columns of the day table: the 5 FlowContext fields + link id
_KEY_NAMES = ("k0", "k1", "k2", "k3", "k4", "k5")

#: one day's counts projected onto a feature grain: key -> link -> bytes
GrainProjection = Dict[Tuple[object, ...], Dict[int, float]]


class CountsAccumulator:
    """Finest-grain (flow context, link) -> bytes accumulator.

    Sits directly on the aggregated hourly stream: one
    :meth:`consume_hour` per hour of :class:`AggRecord`, per-key sums
    accumulated in input order.
    """

    def __init__(self):
        self.counts: Dict[Tuple[FlowContext, int], float] = {}

    def consume_hour(self, hour: int, records: Sequence[AggRecord]) -> None:
        counts = self.counts
        for record in records:
            key = (record.context, record.link_id)
            counts[key] = counts.get(key, 0.0) + record.bytes

    def add(self, context: FlowContext, link_id: int, bytes_: float) -> None:
        if bytes_ <= 0.0:
            return
        key = (context, link_id)
        self.counts[key] = self.counts.get(key, 0.0) + bytes_

    # -- columnar persistence ----------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The accumulated counts as :meth:`DayCounts.to_arrays` columns.

        One row per (flow context, link) key, in accumulation order:
        ``k0..k4`` are the context fields, ``k5`` the link id, ``value``
        the byte count.
        """
        flat: Dict[Tuple[int, ...], float] = {
            (*context, link_id): bytes_
            for (context, link_id), bytes_ in self.counts.items()}
        return encode_keyed_table(flat, len(_KEY_NAMES))

    def total_bytes(self) -> float:
        return sum(self.counts.values())

    def __len__(self) -> int:
        return len(self.counts)

    # -- consumers -------------------------------------------------------------

    def fit(self, models: Iterable[Union[DictHistoricalModel,
                                         DictNaiveBayesModel]]) -> None:
        """Train dict oracles from the accumulated counts (one pass)."""
        models = list(models)
        for (context, link_id), bytes_ in self.counts.items():
            for model in models:
                model.observe(context, link_id, bytes_)
        for model in models:
            model.finalize()

    def project(self, feature_set: "FeatureSet") -> GrainProjection:
        """Aggregate the counts onto a model's feature grain.

        Returns ``{feature key: {link_id: bytes}}``, folding contexts in
        accumulation order — a deterministic function of this
        accumulator's contents.  The offline form of
        :meth:`DayCounts.project`: feeding a window's projections to
        ``DictHistoricalModel.observe_aggregate`` day by day trains the
        models the serving path folds from columns.
        """
        key_of = feature_set.key
        out: GrainProjection = {}
        for (context, link_id), bytes_ in self.counts.items():
            links = out.setdefault(key_of(context), {})
            links[link_id] = links.get(link_id, 0.0) + bytes_
        return out

    def actuals(self) -> Dict[FlowContext, Dict[int, float]]:
        """Reshape into the dict scorer's :data:`ActualsMap` layout
        (``tests/core/accuracy_oracle.py``)."""
        out: Dict[FlowContext, Dict[int, float]] = {}
        for (context, link_id), bytes_ in self.counts.items():
            # (context, link) keys are unique, so a straight assignment
            # into the per-context dict suffices — no re-lookup needed
            out.setdefault(context, {})[link_id] = bytes_
        return out

    def top1_links(self) -> Dict[FlowContext, int]:
        """Each flow's byte-dominant link (partitioning key in §5.3)."""
        best: Dict[FlowContext, Tuple[float, int]] = {}
        for (context, link_id), bytes_ in self.counts.items():
            current = best.get(context)
            if current is None or (bytes_, -link_id) > (current[0], -current[1]):
                best[context] = (bytes_, link_id)
        return {context: link for context, (_b, link) in best.items()}
