"""Training plumbing: byte-count accumulation and model fitting.

Training every TIPSY model is a single pass over byte-weighted
(flow tuple, link) observations (paper §3.3, Table 3).  The accumulator
collects those observations at the finest granularity once; each model
then trains from the projection onto its own feature set, so a whole
model suite costs one streaming pass plus cheap in-memory fits.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from ..pipeline.records import AggRecord, FlowContext
from ..store.codec import encode_keyed_table, key_column_names
from .base import TrainableModel

if TYPE_CHECKING:  # avoids the pipeline <-> core import cycle at runtime
    from .features import FeatureSet


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

    #: key width of the columnar form: the 5 FlowContext fields + link id
    _ARRAY_KEY_WIDTH = len(FlowContext._fields) + 1

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The accumulated counts as aligned columns (``repro.store``).

        One row per (flow context, link) key, in accumulation order:
        ``k0..k4`` are the context fields, ``k5`` the link id, ``value``
        the byte count.  Row order is part of the format — downstream
        folds (:meth:`project`, model fits) iterate the counts dict, so
        :meth:`from_arrays` must rebuild it in the same order for a
        restored accumulator to behave bit-identically.
        """
        flat: Dict[Tuple[int, ...], float] = {
            (*context, link_id): bytes_
            for (context, link_id), bytes_ in self.counts.items()}
        return encode_keyed_table(flat, self._ARRAY_KEY_WIDTH)

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray],
                    ) -> "CountsAccumulator":
        """Rebuild an accumulator from :meth:`to_arrays` output.

        Raises ``KeyError``/``ValueError`` on a column set that does not
        match the format — snapshot readers treat that as corruption and
        degrade to a rebuild.
        """
        acc = cls()
        width = len(FlowContext._fields)
        names = key_column_names(cls._ARRAY_KEY_WIDTH)
        fields = [arrays[name].tolist() for name in names]
        values = arrays["value"].tolist()
        if any(len(column) != len(values) for column in fields):
            raise ValueError("misaligned count columns")
        contexts = map(tuple.__new__, itertools.repeat(FlowContext),
                       zip(*fields[:width]))
        counts = acc.counts
        for context, link_id, bytes_ in zip(contexts, fields[width], values):
            counts[(context, link_id)] = bytes_
        return acc

    def total_bytes(self) -> float:
        return sum(self.counts.values())

    def __len__(self) -> int:
        return len(self.counts)

    # -- consumers -------------------------------------------------------------

    def fit(self, models: Iterable[TrainableModel]) -> None:
        """Train models from the accumulated counts (single pass each)."""
        models = list(models)
        for (context, link_id), bytes_ in self.counts.items():
            for model in models:
                model.observe(context, link_id, bytes_)
        for model in models:
            model.finalize()

    def project(self, feature_set: "FeatureSet",
                ) -> Dict[Tuple[object, ...], Dict[int, float]]:
        """Aggregate the counts onto a model's feature grain.

        Returns ``{feature key: {link_id: bytes}}``, folding contexts in
        accumulation order — a deterministic function of this
        accumulator's contents.  Rolling-window trainers project each
        day once and feed models via ``observe_aggregate``, so a daily
        delta costs one pass over the day instead of one over the
        window.
        """
        key_of = feature_set.key
        out: Dict[Tuple[object, ...], Dict[int, float]] = {}
        for (context, link_id), bytes_ in self.counts.items():
            links = out.setdefault(key_of(context), {})
            links[link_id] = links.get(link_id, 0.0) + bytes_
        return out

    def actuals(self) -> Dict[FlowContext, Dict[int, float]]:
        """Reshape into the evaluation :data:`ActualsMap` layout."""
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
