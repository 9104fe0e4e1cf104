"""TIPSY as an online prediction service (paper §4).

"We designed TIPSY to run online as a prediction service and to retrain
its models daily" over a rolling training window (3 weeks in §5).  The
service ingests the hourly aggregated stream as columns
(``AggColumns``; a list of ``AggRecord`` is transposed at the door),
keeps each window day as one keyed columnar table
(:class:`~repro.core.training.DayCounts` — the form the day is
snapshotted in), and serves the two queries the CMS needs:

* ``predict`` / ``predict_batch`` — top-k ingress links under an
  availability prior, answered by the best general-purpose model (the
  AP-led ensemble, with AL+G for availability-constrained queries);
* ``what_if`` — given flows and a hypothetical withdrawal set, the
  predicted byte spill per link (paper §4.4's safety question).

Retraining is a *rebuild*: the served suite is a pure function of the
window's completed days.  Each completed day is projected once onto
every model's feature grain (keyed columns, kept until the day leaves
the window), and the daily retrain folds the window's projections, in
day order, into fresh models — one grouped sum and one sort per grain
(a model is a sorted table that ranks a tuple when first asked).  A
day's delta touches most of a model's tuples (78-100 % on the
benchmark's world), so keeping the previous suite up in place would save
nothing; building anew means a model's counts never change once served
and what a service answers does not depend on how long it has run.

Retraining is also *atomic* to a reader: the new models, the days they
were trained on, a fresh memo and the day of publication are published
together as one :class:`PublishedSuite` by a single assignment.  A query
reads it once, lock-free, so one asked mid-retrain gets the old suite
or the new one, never a half-built model (``tests/serve/test_hotswap.py``),
at the cost of a second suite in memory while a retrain runs; the day
tag tells ``repro.serve`` which of the two gave an answer.

Serving is *remembered*: a query reads the suite's bounded
:class:`~repro.util.cache.AnswerMemo` first, and only the flows it does
not hold reach the model, grouped by its feature key so each distinct
key is predicted once (the paper's tuple space is far smaller than its
flow space).  A retrain publishes an empty memo.

State is *persistent*: :meth:`TipsyService.snapshot` writes the rolling
window's per-day counts as columnar segments (``repro.store``) — the
models are derived state and are not stored — and
:meth:`TipsyService.restore` loads them in a fresh process and rebuilds,
with bit-identical answers and bit-identical future retrains.  A corrupt
or missing day segment costs that day, reported, and nothing else
(``docs/storage.md``); restarting a daemon costs a segment load plus one
window fold.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (AbstractSet, ClassVar, Dict, FrozenSet, List, NamedTuple,
                    Optional, Sequence, Tuple, Union, cast)

from ..obs import runtime as obs
from ..pipeline.records import AggColumns, AggHour, FlowContext
from ..store import SegmentStore
from ..topology.wan import CloudWAN
from ..util.cache import AnswerMemo
from .base import (NO_LINKS, IngressModel, Prediction, group_flows,
                   spill_from_groups)
from .ensemble import SequentialEnsemble
from .features import FEATURES_A, FEATURES_AL, FEATURES_AP, FeatureSet
from .geo_augment import GeoAugmentedModel
from .historical import HistoricalModel
from .training import DayCounts, KeyedTable, fold_keyed

#: one flow's (or flow group's) answer, as the memo keeps it
Answer = Tuple[Prediction, ...]

#: snapshot layout version, stamped into the store manifest meta; bump
#: on any change to segment naming, column sets, or the state dict
SNAPSHOT_FORMAT = 1


class SnapshotError(RuntimeError):
    """The directory holds no usable snapshot (absent/corrupt manifest).

    Raised only when there is nothing to restore *from* — per-segment
    corruption never raises; it degrades (see :class:`RestoreReport`).
    """


@dataclass(frozen=True)
class RestoreReport:
    """What a snapshot restore recovered and what it lost.

    ``days_lost`` lists day segments that failed the store's integrity
    checks (missing file, bad checksum, version skew, undecodable
    columns) — the caller can replay exactly those days from the
    pipeline; until then the models are trained on the days that
    survived.
    """

    days_restored: Tuple[int, ...]
    days_lost: Tuple[int, ...]
    degraded: Tuple[Tuple[str, str], ...]

    @property
    def clean(self) -> bool:
        """True when every day of the snapshot came back."""
        return not self.days_lost


@dataclass
class ServiceConfig:
    """Rolling-window, retraining and serving policy."""

    # the fixed model roles (§4), and the grain AL+G takes from its AL base
    primary_model: ClassVar[str] = "Hist_AP/AL/A"
    withdrawal_model: ClassVar[str] = "Hist_AL+G"
    withdrawal_grain: ClassVar[FeatureSet] = FEATURES_AL

    training_window_days: int = 21
    prediction_k: int = 3
    # answers kept per published suite (<= 0: none); see AnswerMemo
    memo_size: int = 65536

    def __post_init__(self) -> None:
        if self.training_window_days < 1 or self.prediction_k < 1:
            raise ValueError("training_window_days and prediction_k must "
                             f"be at least 1: {self}")

    def query_k(self, k: Optional[int]) -> int:
        """The ``k`` a query asks for: ``None`` or 0 is ``prediction_k``,
        a negative one is a ``ValueError``."""
        if k is not None and k < 0:
            raise ValueError(f"k must be at least 1, got {k}")
        return k or self.prediction_k

    def stored(self) -> Dict[str, object]:
        """The config as a snapshot or checkpoint manifest records it."""
        return dict(asdict(self), primary_model=self.primary_model,
                    withdrawal_model=self.withdrawal_model)

    @classmethod
    def load(cls, stored: Dict[str, object]) -> "ServiceConfig":
        """Read :meth:`stored` back (``TypeError``/``ValueError`` if unfit)."""
        fields = dict(stored)
        for role in ("primary_model", "withdrawal_model"):
            if fields.pop(role, getattr(cls, role)) != getattr(cls, role):
                raise ValueError(f"{role} {stored[role]!r} is not served")
        return cls(**fields)


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
    #: tagged with the day being collected when the suite was published,
    #: which :meth:`TipsyService.answers` returns beside its answers
    memo: Memo


class TipsyService:
    """Rolling-window, daily-retrained ingress prediction service."""

    #: feature grains of the base model suite, in ensemble order
    _GRAINS = (FEATURES_AP, FEATURES_AL, FEATURES_A)

    def __init__(self, wan: CloudWAN, config: Optional[ServiceConfig] = None):
        self.wan = wan
        self.config = config or ServiceConfig()
        # day -> that day's finest-grain counts
        self._days: "OrderedDict[int, DayCounts]" = OrderedDict()
        # completed window day -> its counts projected onto each base
        # model's grain (_GRAINS order), computed once when the day
        # completes and folded into every retrain until it is evicted
        self._projections: Dict[int, Tuple[KeyedTable, ...]] = {}
        self._current_day: Optional[int] = None
        self._last_hour: Optional[int] = None
        self.retrain_count = 0
        # what queries read; replaced whole, by one assignment, at the
        # end of every retrain (see PublishedSuite)
        self._published = PublishedSuite(
            {}, (), AnswerMemo(self.config.memo_size))
        #: set by :meth:`restore`; None on a service built from scratch
        self.restore_report: Optional[RestoreReport] = None

    # -- ingestion ------------------------------------------------------------

    def ingest_hour(self, hour: int, records: AggHour) -> None:
        """Feed one hour of the aggregated telemetry stream.

        ``records`` is the aggregator's ``AggColumns`` (read, never
        written to) or any sequence of ``AggRecord``; either way every
        row must be labelled ``hour``.  Hours must arrive in time order
        (equal hours may repeat, e.g. several telemetry batches of the
        same hour).  Crossing into a new day triggers a retrain over the
        rolling window (the paper retrains daily).
        """
        columns = AggColumns.of(hour, records)
        if self._last_hour is not None and hour < self._last_hour:
            raise ValueError("telemetry must be ingested in time order")
        self._last_hour = hour
        day = hour // 24
        if day != self._current_day:
            self._current_day = day
            self._days.setdefault(day, DayCounts())
            self._evict_old()
            self.retrain()
        self._days[day].add_hour(columns)
        if obs.enabled():
            obs.count("service.ingest.hours")
            obs.count("service.ingest.records", float(columns.n_records))

    def _evicted(self, day: int) -> bool:
        """Whether ``day`` is older than the window ending today."""
        return (self._current_day is not None and day
                < self._current_day - self.config.training_window_days)

    def _evict_old(self) -> None:
        for day in [d for d in self._days if self._evicted(d)]:
            del self._days[day]

    # -- training ---------------------------------------------------------------

    def retrain(self) -> None:
        """Rebuild the model suite from the rolling window and publish it.

        Every completed window day's grain projections are folded, in
        day order, into fresh models that replace the served suite in
        one step (:class:`PublishedSuite`).  Called at every day
        boundary; calling it again in between rebuilds the same suite.
        """
        with obs.timed("service.retrain"):
            self._retrain()
        self.retrain_count += 1
        if obs.enabled():
            obs.count("service.retrain.count")
            self.export_gauges()

    def _retrain(self) -> None:
        trained_on = tuple(sorted(
            day for day in self._days if day != self._current_day))
        for day in [d for d in self._projections if d not in self._days]:
            del self._projections[day]
        for day in trained_on:
            if day not in self._projections:
                self._projections[day] = tuple(
                    self._days[day].project(fs) for fs in self._GRAINS)
        base = []
        for grain, fs in enumerate(self._GRAINS):
            window = [self._projections[day][grain] for day in trained_on]
            base.append(HistoricalModel.from_arrays(
                fold_keyed(window, len(fs.fields) + 1), fs))
        self._publish(tuple(base), trained_on)

    def _publish(self, base: Tuple[HistoricalModel, ...],
                 trained_on: Tuple[int, ...]) -> None:
        """Serve a trained base suite (AP, AL, A) from the next query on.

        The memo starts empty — its answers were the previous suite's —
        and carries the cumulative counters :meth:`cache_stats` reports.
        """
        ap, al, a = base
        self._published = PublishedSuite({
            "Hist_AP": ap,
            "Hist_AL": al,
            "Hist_A": a,
            "Hist_AL+G": GeoAugmentedModel(al, self.wan,
                                           name="Hist_AL+G"),
            "Hist_AP/AL/A": SequentialEnsemble([ap, al, a],
                                               name="Hist_AP/AL/A"),
        }, trained_on, AnswerMemo(self.config.memo_size, self._current_day,
                                  self._published.memo))

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
        return self._last_hour

    @staticmethod
    def _model_of(suite: PublishedSuite, name: str) -> IngressModel:
        if not suite.models:
            raise RuntimeError("service has no trained models yet")
        return suite.models[name]

    def model(self, name: str) -> IngressModel:
        return self._model_of(self._published, name)

    # -- snapshot / restore -------------------------------------------------------

    def snapshot(self, directory: Union[str, Path]) -> SegmentStore:
        """Persist the rolling window as a columnar store.

        Writes one ``day_counts`` segment per window day (the day's
        table as held in memory, first-seen row order) under a
        checksummed manifest carrying the service config and scalars,
        and removes the segments of days no longer in the window.
        The models are a function of those days, so none is written:
        :meth:`restore` of an intact snapshot rebuilds them and is
        bit-identical to never having restarted.

        Returns the written :class:`~repro.store.SegmentStore`.
        """
        with obs.timed("service.snapshot"):
            store = SegmentStore(directory, create=True)
            for day, counts in self._days.items():
                arrays = counts.to_arrays()
                store.write(f"day-{day:06d}", arrays, kind="day_counts",
                            rows=len(arrays["value"]),
                            meta={"day": str(day)})
            for info in store.segments():
                # an earlier snapshot into this directory wrote days
                # that have since left the window
                if (info.kind == "day_counts"
                        and self._evicted(int(info.meta.get("day", "-1")))):
                    store.remove(info.name)
            store.set_meta({
                "snapshot_format": str(SNAPSHOT_FORMAT),
                "config": json.dumps(self.config.stored(), sort_keys=True),
                "state": json.dumps({
                    "current_day": self._current_day,
                    "last_hour": self._last_hour,
                    "retrain_count": self.retrain_count,
                }, sort_keys=True),
            })
        if obs.enabled():
            obs.count("service.snapshot.writes")
            obs.gauge_set("service.snapshot.bytes",
                          float(store.total_bytes()))
        return store

    @classmethod
    def restore(cls, directory: Union[str, Path],
                wan: CloudWAN) -> "TipsyService":
        """Resume a service from a :meth:`snapshot` directory.

        Loads the day tables and rebuilds the models from them, so an
        intact snapshot restores bit-identically: the returned service
        answers ``predict_batch``/``what_if`` byte-equal to the
        uninterrupted original *and* keeps doing so as ingestion
        continues.  Per-segment corruption degrades instead of erroring:
        a lost day is dropped from the window and reported (a lost
        *current* day restarts empty, so its remaining hours still
        land).  Check ``service.restore_report`` for what happened; only
        an unusable manifest raises :class:`SnapshotError`.  Segments
        and state keys this reader does not know — an older writer's
        stored models — are ignored, and so are day segments older than
        the window, which a writer that did not prune left behind.
        """
        with obs.timed("service.restore"):
            store = SegmentStore(directory)
            state_raw = store.meta.get("state")
            if (store.meta.get("snapshot_format") != str(SNAPSHOT_FORMAT)
                    or state_raw is None):
                raise SnapshotError(
                    f"{directory}: no usable snapshot (manifest absent, "
                    f"corrupt, or version-skewed)")
            config_raw = store.meta.get("config")
            try:
                config = (ServiceConfig.load(json.loads(config_raw))
                          if config_raw else None)
                state = json.loads(state_raw)
            except (TypeError, ValueError) as error:
                raise SnapshotError(
                    f"{directory}: snapshot metadata unusable "
                    f"({error})") from None
            service = cls(wan, config)
            service._current_day = state.get("current_day")
            service._last_hour = state.get("last_hour")
            service.retrain_count = int(state.get("retrain_count", 0))
            days_restored: List[int] = []
            days_lost: List[int] = []
            day_infos = sorted(
                (info for info in store.segments()
                 if info.kind == "day_counts"),
                key=lambda info: int(info.meta.get("day", "-1")))
            for info in day_infos:
                day = int(info.meta.get("day", "-1"))
                if service._evicted(day):
                    # left by a writer that did not prune: the day was
                    # out of the window when this snapshot was cut
                    continue
                arrays = store.read(info.name)
                if arrays is None:
                    days_lost.append(day)
                    continue
                try:
                    counts = DayCounts.from_arrays(arrays)
                except (KeyError, ValueError):
                    days_lost.append(day)
                    continue
                service._days[day] = counts
                days_restored.append(day)
            if service._current_day is not None:
                # ingest_hour adds to the current day's table without
                # looking: a lost one starts over empty
                service._days.setdefault(service._current_day, DayCounts())
                service._retrain()
            service.restore_report = RestoreReport(
                days_restored=tuple(days_restored),
                days_lost=tuple(days_lost),
                degraded=tuple(store.degraded))
        if obs.enabled():
            obs.count("service.restore.count")
            obs.count("service.restore.days_lost", float(len(days_lost)))
        return service

    # -- queries ------------------------------------------------------------------

    def _answer(self, suite: PublishedSuite, name: str,
                contexts: Sequence[FlowContext], k: Optional[int],
                prior: FrozenSet[int]) -> List[Answer]:
        """Per-context answers of model ``name``, one suite throughout:
        the memo's, else the model's — each distinct group key among
        the contexts the memo does not hold predicted once."""
        k = self.config.query_k(k)
        model = self._model_of(suite, name)
        shape = (name, k, prior)
        found, n_missing = suite.memo.lookup(shape, contexts)
        if not n_missing:
            return cast(List[Answer], found)
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
            suite = self._published
            name = self.config.withdrawal_model
            group_contexts, group_bytes = group_flows(
                self._model_of(suite, name).group_key, flows)
            if not group_contexts:
                return {}
            predictions = self._answer(suite, name, group_contexts, k,
                                       frozenset(withdrawn))
            return spill_from_groups(zip(predictions, group_bytes))

    def answers(
        self, name: str, contexts: Sequence[FlowContext],
        k: Optional[int], prior: AbstractSet[int],
    ) -> Tuple[Optional[int], List[Answer]]:
        """Model ``name``'s per-context answers, memoized, tagged with
        the day of the suite that gave them — both from one read.

        The building block the sharded daemon scatters: each shard
        answers its own contexts (the parent re-runs the exact
        :func:`spill_from_groups` accumulation for ``what_if``), and
        the tag lets the daemon keep an answer for exactly as long as
        the suite that gave it is the one a shard must be serving.
        """
        suite = self._published
        return suite.memo.day, self._answer(suite, name, contexts, k,
                                            frozenset(prior))

    # -- observability -------------------------------------------------------------

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
