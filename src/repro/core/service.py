"""TIPSY as an online prediction service (paper §4).

"We designed TIPSY to run online as a prediction service and to retrain
its models daily."  A :class:`TipsyService` is a rolling window
(:class:`~repro.core.window.RollingWindow`, which ingests the hourly
stream and folds its completed days at each day's first hour) plus the
suite built from each fold (:func:`~repro.core.ensemble.build_suite`),
and serves the two queries the CMS needs:

* ``predict`` / ``predict_batch`` — top-k ingress links under an
  availability prior, answered by the best general-purpose model (the
  AP-led ensemble, with AL+G for availability-constrained queries);
* ``what_if`` — given flows and a hypothetical withdrawal set, the
  predicted byte spill per link (paper §4.4's safety question).

Retraining is a *rebuild*, one sort per base grain over the fold (a
model is a sorted table that ranks a tuple when first asked).  A day's
delta touches most of a model's tuples (78-100 % on the benchmark's
world), so keeping the previous suite up in place would save nothing;
building anew means a model's counts never change once served.

Retraining is also *atomic* to a reader: the new models, the days they
were trained on and a fresh memo are published together as one
:class:`PublishedSuite` by a single assignment.  A query reads it once,
lock-free, so one asked mid-retrain gets the old suite or the new one,
never a half-built model (``tests/serve/test_hotswap.py``), at the cost
of a second suite in memory while a retrain runs — a cost only a
service pays: a shard of the sharded daemon is a window alone.
:meth:`TipsyService.install` serves a fold made elsewhere too: it is
how the daemon's front serves its shards' merged folds (``repro.serve``).

Serving is *remembered*: a query reads the suite's bounded
:class:`~repro.util.cache.AnswerMemo` first, and only the flows it does
not hold reach the model, grouped by its feature key so each distinct
key is predicted once (the paper's tuple space is far smaller than its
flow space).  A retrain publishes an empty memo.
"""

from __future__ import annotations

from pathlib import Path
from typing import (AbstractSet, Dict, FrozenSet, List, NamedTuple,
                    Optional, Sequence, Tuple, Union, cast)

from ..obs import runtime as obs
from ..pipeline.records import AggHour, FlowContext
from ..store import SegmentStore
from ..topology.wan import CloudWAN
from ..util.cache import AnswerMemo, MemoStats
from .base import (NO_LINKS, IngressModel, Prediction, group_flows,
                   spill_from_groups)
from .ensemble import build_suite
from .training import KeyedTable
from .window import (SNAPSHOT_FORMAT, RestoreReport, RollingWindow,
                     ServiceConfig, SnapshotError)

__all__ = ["SNAPSHOT_FORMAT", "PublishedSuite", "RestoreReport",
           "ServiceConfig", "SnapshotError", "TipsyService"]

#: one flow's (or flow group's) answer, as the memo keeps it
Answer = Tuple[Prediction, ...]

#: (answering model, k, unavailable links) -> flow context -> answer
Memo = AnswerMemo[Tuple[str, int, FrozenSet[int]], FlowContext, Answer]


class PublishedSuite(NamedTuple):
    """Everything a query reads, replaced as one reference per retrain.

    The models' counts are final (only idempotent per-tuple rankings fill
    in) and the memo holds only their answers, so a query reading the
    suite once can never pair one retrain's memo with another's models.
    """

    models: Dict[str, IngressModel]
    trained_on: Tuple[int, ...]
    memo: Memo


class TipsyService:
    """Rolling-window, daily-retrained ingress prediction service."""

    def __init__(self, wan: CloudWAN, config: Optional[ServiceConfig] = None):
        self.wan = wan
        self.window = RollingWindow(config)
        self.config = self.window.config
        # what queries read; replaced whole, by one assignment, at the
        # end of every retrain (see PublishedSuite)
        self._published = PublishedSuite(
            {}, (), AnswerMemo(self.config.memo_size))
        #: set by :meth:`restore`; None on a service built from scratch
        self.restore_report: Optional[RestoreReport] = None

    @property
    def retrain_count(self) -> int:
        """Suites published from the window's folds, across restores."""
        return self.window.retrain_count

    # -- ingestion and training ----------------------------------------------

    def ingest_hour(self, hour: int, records: AggHour) -> None:
        """Feed one hour of the aggregated telemetry stream
        (:meth:`RollingWindow.ingest_hour`); a day's first hour retrains."""
        self.window.ingest_hour(hour, records, self.retrain)

    def retrain(self) -> None:
        """Fold the rolling window and publish the suite built from it
        in one step (:class:`PublishedSuite`); called at every day
        boundary, and again in between it rebuilds the same suite."""
        self.window.fold(lambda fold: self.install(fold.tables,
                                                   fold.trained_on))
        self.export_gauges()

    def install(self, tables: Sequence[KeyedTable],
                trained_on: Tuple[int, ...]) -> None:
        """Serve the suite built from ``tables``, the folded counts of
        ``trained_on`` at each base grain (a :class:`~repro.core.window.Fold`),
        from the next query on: every retrain publishes through here.
        The memo starts empty (its answers were the previous suite's)
        and carries the cumulative counters :meth:`cache_stats` reports.
        """
        self._published = PublishedSuite(
            build_suite(tables, self.wan), trained_on,
            AnswerMemo(self.config.memo_size, self._published.memo))

    @property
    def trained_days(self) -> Tuple[int, ...]:
        """Days of data behind the currently-served models."""
        return self._published.trained_on

    @property
    def ready(self) -> bool:
        return bool(self._published.trained_on)

    @property
    def last_hour(self) -> Optional[int]:
        """Newest hour handed to :meth:`ingest_hour` (or restored)."""
        return self.window.last_hour

    @staticmethod
    def _model_of(suite: PublishedSuite, name: str) -> IngressModel:
        if not suite.models:
            raise RuntimeError("service has no trained models yet")
        return suite.models[name]

    def model(self, name: str) -> IngressModel:
        return self._model_of(self._published, name)

    # -- snapshot / restore -------------------------------------------------------

    def snapshot(self, directory: Union[str, Path]) -> SegmentStore:
        """Persist the rolling window (:meth:`RollingWindow.snapshot`);
        the models are a function of its days, so none is written."""
        return self.window.snapshot(directory)

    @classmethod
    def restore(cls, directory: Union[str, Path],
                wan: CloudWAN) -> "TipsyService":
        """Resume a service from a :meth:`snapshot` directory
        (:meth:`RollingWindow.restore`, whose report it keeps) serving the
        restored fold's suite, bit-identical to never having stopped."""
        window = RollingWindow.restore(directory)
        service = cls(wan, window.config)
        service.window, service.restore_report = window, window.restore_report
        fold = window.last_fold
        if fold.tables:
            service.install(fold.tables, fold.trained_on)
        return service

    # -- queries ------------------------------------------------------------------

    def _answer(self, suite: PublishedSuite, name: str,
                contexts: Sequence[FlowContext], k: Optional[int],
                prior: FrozenSet[int]) -> List[Answer]:
        """Per-context answers of model ``name``, one suite throughout:
        the memo's, else the model's — each distinct group key among
        the contexts the memo does not hold predicted once."""
        k = self.config.query_k(k)
        shape = (name, k, prior)
        found, n_missing = suite.memo.lookup(shape, contexts)
        if not n_missing:
            return cast(List[Answer], found)
        model = self._model_of(suite, name)
        group_key = model.group_key
        by_group: Dict[object, Answer] = {}
        fresh: Dict[FlowContext, Answer] = {}
        for context, held in zip(contexts, found):
            if held is None and context not in fresh:
                key = group_key(context)
                answer = by_group.get(key)
                if answer is None:
                    answer = by_group[key] = tuple(
                        model.predict(context, k, prior))
                fresh[context] = answer
        suite.memo.store(shape, fresh)
        if obs.enabled():
            obs.count("service.predict.groups", float(len(by_group)))
        return [fresh[context] if held is None else held
                for context, held in zip(contexts, found)]

    def _query_model(self, unavailable: FrozenSet[int]) -> str:
        return (self.config.withdrawal_model if unavailable
                else self.config.primary_model)

    def predict(self, context: FlowContext, k: Optional[int] = None,
                unavailable: AbstractSet[int] = NO_LINKS) -> List[Prediction]:
        """Top-k ingress prediction for one flow; ``k`` of ``None`` or 0
        means ``config.prediction_k``, a negative one is a ``ValueError``."""
        prior = frozenset(unavailable)
        return list(self._answer(self._published, self._query_model(prior),
                                 (context,), k, prior)[0])

    def predict_batch(self, contexts: Sequence[FlowContext],
                      k: Optional[int] = None,
                      unavailable: AbstractSet[int] = NO_LINKS,
                      ) -> List[List[Prediction]]:
        """Top-k predictions for many flows at once (``k`` as in
        :meth:`predict`).

        A remembered flow costs one dictionary look-up; the rest are
        grouped by the answering model's feature key, each distinct key
        predicted once: a million flows over a few thousand tuples cost
        a few thousand model lookups plus fan-out.
        """
        prior = frozenset(unavailable)
        with obs.timed("service.predict_batch"):
            out = [list(answer) for answer in self._answer(
                self._published, self._query_model(prior), contexts, k,
                prior)]
        if obs.enabled():
            obs.count("service.predict.batches")
            obs.count("service.predict.flows", float(len(out)))
        return out

    def what_if(
        self,
        flows: Sequence[Tuple[FlowContext, float]],
        withdrawn: AbstractSet[int],
        k: Optional[int] = None,
    ) -> Dict[int, float]:
        """Predicted per-link byte spill if ``withdrawn`` links go away.

        This is the CMS's safety question (§4.4): it passes the flows it
        wants to move and the links it would withdraw from; the answer
        is where those bytes land, byte-weighted by prediction scores.
        Bytes with no prediction are returned under link id ``-1``
        (unplaceable).  ``k`` is as in :meth:`predict`.

        Flows are grouped by the withdrawal model's feature key: each
        distinct key is answered once (from the memo, else the model)
        and the spill is accumulated by :func:`spill_from_groups` — bit
        for bit the withdrawal model's own :meth:`IngressModel.what_if`.
        """
        if obs.enabled():
            obs.count("service.what_if.calls")
            obs.count("service.what_if.flows", float(len(flows)))
        with obs.timed("service.what_if"):
            if not flows:
                return {}
            suite = self._published
            name = self.config.withdrawal_model
            group_contexts, group_bytes = group_flows(
                self._model_of(suite, name).group_key, flows)
            predictions = self._answer(suite, name, group_contexts, k,
                                       frozenset(withdrawn))
            return spill_from_groups(zip(predictions, group_bytes))

    # -- observability -------------------------------------------------------------

    def memo_stats(self) -> MemoStats:
        """The served memo's counters, cumulative across publications."""
        return self._published.memo.stats()

    def cache_stats(self) -> Dict[str, int]:
        """Serving-cache occupancy and efficiency, for logs and gauges."""
        memo = self._published.memo
        stats = memo.stats()
        return {
            "memo_entries": stats.entries,
            "memo_hits": stats.hits,
            "memo_misses": stats.misses,
            "memo_evictions": memo.evictions,
        }

    def export_gauges(self) -> None:
        """Publish serving state to the obs registry (no-op when off).

        Called automatically at the end of every retrain; callers that
        want fresher memo numbers between retrains (the CLI) may call
        it directly.
        """
        if not obs.enabled():
            return
        obs.set_gauges({key: float(value)
                        for key, value in self.cache_stats().items()},
                       prefix="service.")
        obs.gauge_set("service.trained_days", float(len(self.trained_days)))
        obs.gauge_set("service.retrain_count", float(self.retrain_count))
