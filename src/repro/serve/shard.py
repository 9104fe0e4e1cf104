"""One shard of model state that retrains while it serves.

A shard owns the rolling-window service state for the feature keys that
hash to it (:mod:`repro.serve.sharding`).  Queries must never block on —
or observe — a retrain in progress, and :class:`HotSwapShard` gets that
from the one :class:`~repro.core.service.TipsyService` it holds: an
ordinary hour touches only the day's counts, which no query reads, and a
day-boundary retrain builds the next suite from the window's columns,
beside the served one, and publishes models, trained days and a fresh
memo by one assignment that each query reads once.  A query that read
the suite before the assignment finishes on the *old* models, which
nothing ever writes to; one arriving after it sees the *new* ones; none
sees a half-built model (``tests/serve/test_hotswap.py`` parks a
retrain mid-build to show it).  The cost is a second suite in memory
while a retrain runs; ``swap_count`` counts the suites published.

One lock: the *writer* lock orders ``ingest_hour`` against ``snapshot``
(a checkpoint must not see half an hour).  Queries take none — the
suite's memo locks its own dictionary work — so neither a retrain nor
another reader delays a query.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import (AbstractSet, List, Optional, Sequence, Tuple, Union)

from ..core.base import NO_LINKS, Prediction
from ..core.service import ServiceConfig, TipsyService
from ..pipeline.records import AggHour, FlowContext
from ..topology.wan import CloudWAN
from .health import ShardHealth, staleness_hours


class HotSwapShard:
    """Per-shard service state: one writer, readers on published suites."""

    def __init__(self, shard_id: int, wan: CloudWAN,
                 config: Optional[ServiceConfig] = None,
                 service: Optional[TipsyService] = None):
        self.shard_id = shard_id
        self._service = service or TipsyService(wan, config)
        self._write_lock = threading.Lock()
        # suites published before this shard existed (a restored
        # service's retrain_count is cumulative) are not its swaps
        self._retrains_before = self._service.retrain_count

    # -- ingest (writer side) -------------------------------------------------

    def ingest_hour(self, hour: int, records: AggHour) -> None:
        """Apply one hour, retraining and publishing at a day boundary."""
        with self._write_lock:
            self._service.ingest_hour(hour, records)

    @property
    def last_hour(self) -> Optional[int]:
        """Newest hour handed to the service (or restored)."""
        return self._service.last_hour

    @property
    def swap_count(self) -> int:
        """Suites this shard has published: one per retrain."""
        return self._service.retrain_count - self._retrains_before

    # -- queries (reader side) ------------------------------------------------

    def predict_batch(self, contexts: Sequence[FlowContext],
                      k: Optional[int] = None,
                      unavailable: AbstractSet[int] = NO_LINKS,
                      ) -> List[List[Prediction]]:
        """Batched predictions from one published suite (old-or-new only)."""
        return self._service.predict_batch(contexts, k, unavailable)

    def answers(
        self, name: str, contexts: Sequence[FlowContext],
        k: Optional[int], prior: AbstractSet[int],
    ) -> Tuple[Optional[int], List[Tuple[Prediction, ...]]]:
        """Model ``name``'s per-context answers and the day of the one
        published suite that gave them (the daemon's memo tag)."""
        return self._service.answers(name, contexts, k, prior)

    # -- lifecycle ------------------------------------------------------------

    def snapshot(self, directory: Union[str, Path]) -> Optional[int]:
        """Checkpoint the shard's state (``docs/storage.md``); returns
        the newest hour the snapshot holds."""
        with self._write_lock:
            self._service.snapshot(directory)
            return self.last_hour

    @classmethod
    def restore(cls, directory: Union[str, Path], shard_id: int,
                wan: CloudWAN) -> "HotSwapShard":
        """Resume a shard from a checkpoint directory."""
        return cls(shard_id, wan,
                   service=TipsyService.restore(directory, wan))

    def health(self, ingest_queue_depth: int = 0) -> ShardHealth:
        """A point-in-time health sample of the served suite."""
        service = self._service
        trained = service.trained_days
        stats = service.cache_stats()
        latest = max(trained) if trained else None
        last_hour = self.last_hour
        report = service.restore_report
        return ShardHealth(
            shard_id=self.shard_id,
            last_hour=last_hour,
            trained_days=len(trained),
            latest_trained_day=latest,
            staleness_hours=staleness_hours(last_hour, latest),
            swap_count=self.swap_count,
            retrain_count=service.retrain_count,
            ready=bool(trained),
            ingest_queue_depth=ingest_queue_depth,
            memo_entries=stats["memo_entries"],
            memo_hits=stats["memo_hits"],
            memo_misses=stats["memo_misses"],
            days_lost=report.days_lost if report is not None else (),
        )
