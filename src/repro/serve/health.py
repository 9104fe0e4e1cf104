"""Health and status surface of the serving daemon.

Built on :mod:`repro.obs`: every :meth:`ServeDaemon.status` call gathers
one :class:`ShardHealth` per shard (trained window, swap counter,
staleness, ingest backlog, days a resume could not read back), folds
them and the answer-memo counters of the front's service, which
answers every read, into a :class:`DaemonStatus`, and publishes the
numbers as ``serve.*`` gauges when instrumentation is enabled — so the
same figures feed the CLI's status lines and the Prometheus exporter.

*Staleness* is the operator's freshness number: how many ingested hours
are newer than the newest day behind the served models.  A healthy
daemon oscillates between 1 and 24 (the paper retrains daily, so up to
a day of telemetry is always awaiting its first retrain); a climbing
staleness means retrains are not keeping up with ingest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..obs import runtime as obs
from ..util.cache import MemoStats


@dataclass(frozen=True)
class ShardHealth:
    """One shard's liveness and freshness numbers."""

    shard_id: int
    last_hour: Optional[int]
    trained_days: int
    latest_trained_day: Optional[int]
    staleness_hours: int
    swap_count: int
    retrain_count: int
    ready: bool
    ingest_queue_depth: int
    # always 0: a shard holds no memo, as no read reaches it and it
    # builds no model.  Kept while benchmarks/e2e/tipsybench/serving.py
    # reads them (ROADMAP 2(e))
    memo_entries: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    #: window days whose checkpoint segment was unreadable at resume:
    #: the shard serves without them until they age out of the window
    days_lost: Tuple[int, ...] = ()


def staleness_hours(last_hour: Optional[int],
                    latest_trained_day: Optional[int]) -> int:
    """Ingested hours newer than the newest trained day (>= 0)."""
    if last_hour is None:
        return 0
    if latest_trained_day is None:
        return last_hour + 1
    return max(0, last_hour - 24 * (latest_trained_day + 1) + 1)


@dataclass(frozen=True)
class DaemonStatus:
    """The whole daemon's health: per-shard detail plus aggregates."""

    n_shards: int
    workers: str
    last_hour: Optional[int]
    ready: bool
    total_swaps: int
    max_staleness_hours: int
    ingest_backlog: int
    shards: Tuple[ShardHealth, ...]
    front: MemoStats

    @classmethod
    def from_shards(cls, shards: Tuple[ShardHealth, ...], workers: str,
                    front: MemoStats) -> "DaemonStatus":
        last_hours = [s.last_hour for s in shards if s.last_hour is not None]
        return cls(
            n_shards=len(shards),
            workers=workers,
            last_hour=max(last_hours) if last_hours else None,
            ready=bool(shards) and all(s.ready for s in shards),
            total_swaps=sum(s.swap_count for s in shards),
            max_staleness_hours=max(
                (s.staleness_hours for s in shards), default=0),
            ingest_backlog=sum(s.ingest_queue_depth for s in shards),
            shards=shards,
            front=front,
        )

    def format_text(self) -> str:
        """A compact status block for logs and the CLI."""
        head = (f"serve: {self.n_shards} shards ({self.workers}), "
                f"hour={self.last_hour}, "
                f"{'ready' if self.ready else 'warming'}, "
                f"swaps={self.total_swaps}, "
                f"staleness<={self.max_staleness_hours}h, "
                f"backlog={self.ingest_backlog}, "
                f"front memo={self.front.entries} ({self.front.hits} hits, "
                f"{self.front.misses} misses, "
                f"{self.front.hop_free} queries from it alone)")
        lines = [head]
        for s in self.shards:
            lines.append(
                f"  shard {s.shard_id:02d}: days={s.trained_days} "
                f"(latest {s.latest_trained_day}), "
                f"swaps={s.swap_count}, stale={s.staleness_hours}h, "
                f"queue={s.ingest_queue_depth}"
                + (f", LOST days {list(s.days_lost)}" if s.days_lost else ""))
        return "\n".join(lines)


def export_status_gauges(status: DaemonStatus) -> None:
    """Publish a status to the obs registry (no-op when disabled)."""
    if not obs.enabled():
        return
    obs.set_gauges({
        "shards": float(status.n_shards),
        "ready": float(status.ready),
        "swaps": float(status.total_swaps),
        "max_staleness_hours": float(status.max_staleness_hours),
        "ingest_backlog": float(status.ingest_backlog),
    }, prefix="serve.")
    obs.set_gauges({key: float(value) for key, value
                    in status.front._asdict().items()},
                   prefix="serve.front.")
    for s in status.shards:
        obs.set_gauges({
            "swap_count": float(s.swap_count),
            "staleness_hours": float(s.staleness_hours),
            "trained_days": float(s.trained_days),
            "ingest_queue_depth": float(s.ingest_queue_depth),
            "days_lost": float(len(s.days_lost)),
        }, prefix=f"serve.shard{s.shard_id:02d}.")
