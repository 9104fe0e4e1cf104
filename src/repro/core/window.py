"""The rolling training window (paper §4): the days a retrain folds.

TIPSY "retrain[s] its models daily" over a rolling window (3 weeks in
§5).  A :class:`RollingWindow` keeps each window day as one keyed
columnar table (:class:`~repro.core.training.DayCounts`, as a snapshot
stores it), projects each completed day once onto every base grain
(:data:`~repro.core.ensemble.BASE_GRAINS`), and at each day's first hour
folds the projections, in day order, into one table per grain: a pure
function of the window's completed days.  The last :class:`Fold` is the
window's whole output, replaced by one assignment; a
:class:`~repro.core.service.TipsyService` builds its suite from it, and
a shard of the sharded daemon is a window alone (``repro.serve``).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (Callable, ClassVar, Dict, List, NamedTuple, Optional,
                    Tuple, Union)

from ..obs import runtime as obs
from ..pipeline.records import AggColumns, AggHour
from ..store import SegmentStore
from .ensemble import BASE_GRAINS
from .features import FEATURES_AL, FeatureSet
from .training import DayCounts, KeyedTable, fold_keyed

#: snapshot layout version, stamped into the store manifest meta; bump
#: on any change to segment naming, column sets, or the state dict
SNAPSHOT_FORMAT = 1


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


class Fold(NamedTuple):
    """The completed window days, and their counts summed at each base
    grain (:data:`~repro.core.ensemble.BASE_GRAINS` order): what a suite is
    built from."""

    trained_on: Tuple[int, ...]
    tables: Tuple[KeyedTable, ...]


class RollingWindow:
    """The rolling window's day tables and its last daily fold."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        # day -> that day's finest-grain counts
        self._days: "OrderedDict[int, DayCounts]" = OrderedDict()
        # completed window day -> its counts projected onto each base
        # grain, computed once when the day completes and folded into
        # every fold until it is evicted
        self._projections: Dict[int, Tuple[KeyedTable, ...]] = {}
        self._current_day: Optional[int] = None
        #: newest hour handed to :meth:`ingest_hour` (or restored)
        self.last_hour: Optional[int] = None
        #: folds made, across restores (a snapshot carries the count)
        self.retrain_count = 0
        #: the newest fold; replaced whole, by one assignment
        self.last_fold = Fold((), ())
        #: set by :meth:`restore`; None on a window built from scratch
        self.restore_report: Optional[RestoreReport] = None

    def ingest_hour(self, hour: int, records: AggHour,
                    retrain: Optional[Callable[[], None]] = None) -> None:
        """Add one hour of the aggregated telemetry stream to its day.

        ``records`` is the aggregator's ``AggColumns`` (read, never
        written to) or any sequence of ``AggRecord``; either way every
        row must be labelled ``hour``.  Hours must arrive in time order
        (equal hours may repeat, e.g. several telemetry batches of the
        same hour).  Crossing into a new day evicts the days that left
        the window and, before the hour is added, calls ``retrain`` (the
        paper retrains daily): :meth:`fold` unless the owner's retrain
        is given.
        """
        columns = AggColumns.of(hour, records)
        if self.last_hour is not None and hour < self.last_hour:
            raise ValueError("telemetry must be ingested in time order")
        self.last_hour = hour
        day = hour // 24
        if day != self._current_day:
            self._current_day = day
            self._days.setdefault(day, DayCounts())
            for old in [d for d in self._days if self._evicted(d)]:
                del self._days[old]
            (retrain or self.fold)()
        self._days[day].add_hour(columns)
        if obs.enabled():
            obs.count("service.ingest.hours")
            obs.count("service.ingest.records", float(columns.n_records))

    def _evicted(self, day: int) -> bool:
        """Whether ``day`` is older than the window ending today."""
        return (self._current_day is not None and day
                < self._current_day - self.config.training_window_days)

    def fold(self, publish: Optional[Callable[[Fold], None]] = None) -> None:
        """Fold the completed days' grain projections, in day order, into
        the last fold; ``publish``, if given, is handed it first, so the
        suite built from it is served before the fold is counted.  Called
        at every day boundary; again in between, it gives an equal fold.
        """
        with obs.timed("service.retrain"):
            fold = self._folded()
            if publish is not None:
                publish(fold)
            self.last_fold = fold
        self.retrain_count += 1
        if obs.enabled():
            obs.count("service.retrain.count")

    def _folded(self) -> Fold:
        trained_on = tuple(sorted(
            day for day in self._days if day != self._current_day))
        for day in [d for d in self._projections if d not in self._days]:
            del self._projections[day]
        for day in trained_on:
            if day not in self._projections:
                self._projections[day] = tuple(
                    self._days[day].project(fs) for fs in BASE_GRAINS)
        return Fold(trained_on, tuple(
            fold_keyed([self._projections[day][grain] for day in trained_on],
                       len(fs.fields) + 1)
            for grain, fs in enumerate(BASE_GRAINS)))

    # -- snapshot / restore -------------------------------------------------------

    def snapshot(self, directory: Union[str, Path]) -> SegmentStore:
        """Persist the rolling window as a columnar store.

        Writes one ``day_counts`` segment per window day (the day's
        table as held in memory, first-seen row order) under a
        checksummed manifest carrying the config and scalars, and
        removes the segments of days no longer in the window.  The
        models are a function of those days, so none is written:
        :meth:`restore` of an intact snapshot folds them again and is
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
                    "last_hour": self.last_hour,
                    "retrain_count": self.retrain_count,
                }, sort_keys=True),
            })
        if obs.enabled():
            obs.count("service.snapshot.writes")
            obs.gauge_set("service.snapshot.bytes",
                          float(store.total_bytes()))
        return store

    @classmethod
    def restore(cls, directory: Union[str, Path]) -> "RollingWindow":
        """Resume a window from a :meth:`snapshot` directory.

        Loads the day tables and folds them, so an intact snapshot
        restores bit-identically: the returned window's folds are
        byte-equal to the uninterrupted original's, now and as ingestion
        continues.  Per-segment corruption degrades instead of erroring:
        a lost day is dropped from the window and reported (a lost
        *current* day restarts empty, so its remaining hours still
        land).  Check ``window.restore_report`` for what happened; only
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
            window = cls(config)
            window._current_day = state.get("current_day")
            window.last_hour = state.get("last_hour")
            window.retrain_count = int(state.get("retrain_count", 0))
            days_restored: List[int] = []
            days_lost: List[int] = []
            day_infos = sorted(
                (info for info in store.segments()
                 if info.kind == "day_counts"),
                key=lambda info: int(info.meta.get("day", "-1")))
            for info in day_infos:
                day = int(info.meta.get("day", "-1"))
                if window._evicted(day):
                    # left by a writer that did not prune: the day was out
                    # of the window when this snapshot was cut
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
                window._days[day] = counts
                days_restored.append(day)
            if window._current_day is not None:
                # ingest_hour adds to the current day's table without
                # looking: a lost one starts over empty
                window._days.setdefault(window._current_day, DayCounts())
                window.last_fold = window._folded()
            window.restore_report = RestoreReport(
                days_restored=tuple(days_restored),
                days_lost=tuple(days_lost),
                degraded=tuple(store.degraded))
        if obs.enabled():
            obs.count("service.restore.count")
            obs.count("service.restore.days_lost", float(len(days_lost)))
        return window
