"""The shard server: one service, its ingest thread, op dispatch, and
its pipe loop.

:class:`ShardServer` holds the one
:class:`~repro.core.service.TipsyService` of the feature keys that hash
to its shard (:mod:`repro.serve.sharding`) and is the only
implementation of a shard both worker modes have: a worker process
(:func:`shard_worker_main`) feeds it from a duplex
:mod:`multiprocessing` connection, the daemon's inline handle calls it
directly.  The message protocol is small tuples, first element the op:

========== ================== ============================================
op         payload            reply
========== ================== ============================================
ingest     (hour, AggColumns) *none* — enqueued, fire-and-forget
publish    ()                 ("ok", (trained days, (AP, AL, A) tables))
drain      ()                 ("ok", None) once queue empty
status     ()                 ("ok", (ShardHealth, obs delta))
checkpoint (directory,)       ("ok", last_hour the snapshot holds)
stop       (drain,)           ("ok", None); worker exits
========== ================== ============================================

No op answers a query: the daemon's front serves every read from the
suite it builds out of the shards' ``publish`` replies, which carry
the keyed count tables (``TipsyService.published_tables``) of the suite
each shard published once its queued hours were applied.

Ingest is decoupled from the op loop by an internal queue and a
dedicated ingest thread, on which a day-boundary retrain builds the
next suite; the one writer lock orders an hour's ingest against a
snapshot, so a checkpoint never holds half an hour.

Errors inside an op come back as ``("error", message)`` — in both
modes, so both fail at the same point — and raise
:class:`~repro.serve.daemon.ShardError` in the daemon once every reply
of the conversation is read; an ingest-thread error is deferred to the
next ``drain``/``checkpoint``/``stop`` reply (ingest itself has no
reply to carry it).

Observability: when the parent runs instrumented, each worker enables a
fresh registry (a forked child inherits the parent's copy-on-write and
must not double-report it) and every ``status`` reply ships the metrics
delta since the previous one for the parent to merge.
"""

from __future__ import annotations

import gc
import queue
import threading
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..core.service import ServiceConfig, TipsyService
from ..obs import runtime as obs
from ..obs.metrics import MetricsSnapshot
from ..pipeline.records import AggColumns
from ..topology.wan import CloudWAN
from .health import ShardHealth, staleness_hours

if TYPE_CHECKING:
    from multiprocessing.connection import Connection


class ShardServer:
    """One shard's service and everything that serves it: the writer
    lock, the ingest queue and thread, the deferred ingest errors, and
    the op table above.

    ``ship_metrics`` is set where the server has an obs registry of its
    own (a worker process) whose deltas ride back on ``status`` replies.
    """

    #: how long ``stop`` waits for the ingest thread before reporting the
    #: shard stuck (class attr so tests can shrink it)
    _STOP_JOIN_TIMEOUT = 30.0

    def __init__(self, shard_id: int, wan: CloudWAN, config: ServiceConfig,
                 restore_dir: Optional[str] = None,
                 ship_metrics: bool = False):
        self.service = (TipsyService(wan, config) if restore_dir is None
                        else TipsyService.restore(restore_dir, wan))
        self.shard_id = shard_id
        self._write_lock = threading.Lock()
        # suites a restored service published before this server existed
        # (its retrain_count is cumulative) are not this shard's swaps
        self._retrains_before = self.service.retrain_count
        self._ship_metrics = ship_metrics
        self._last_shipped = MetricsSnapshot({}, {}, {})
        self._queue: "queue.Queue[Optional[Tuple[int, AggColumns]]]" = (
            queue.Queue())
        self._errors: List[str] = []
        self._thread = threading.Thread(
            target=self._ingest_loop, name=f"serve-ingest-{shard_id}",
            daemon=True)
        self._thread.start()

    def _ingest_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                hour, columns = item
                try:
                    with self._write_lock:
                        self.service.ingest_hour(hour, columns)
                except Exception as error:  # surfaced at the next drain
                    self._errors.append(
                        f"shard {self.shard_id} hour {hour}: {error!r}")
            finally:
                self._queue.task_done()

    def ingest(self, hour: int, columns: AggColumns) -> None:
        """Enqueue one hour; fire-and-forget, errors wait for a drain."""
        self._queue.put((hour, columns))

    def handle(self, op: str, *payload: object) -> Tuple[str, object]:
        """Run one op; ``("ok", result)`` or ``("error", message)``."""
        try:
            return "ok", getattr(self, "_op_" + op)(*payload)
        except Exception as error:
            return "error", f"shard {self.shard_id} {op}: {error!r}"

    def _op_publish(self) -> object:
        self._op_drain()
        return self.service.published_tables()

    def _op_drain(self) -> None:
        self._queue.join()
        if self._errors:
            raise RuntimeError("; ".join(self._errors))

    def _op_status(self) -> object:
        delta = None
        if self._ship_metrics and obs.enabled():
            current = obs.snapshot()
            delta = current.diff(self._last_shipped)
            self._last_shipped = current
        service = self.service
        trained, stats = service.trained_days, service.cache_stats()
        latest = max(trained) if trained else None
        last_hour, report = service.last_hour, service.restore_report
        return ShardHealth(
            shard_id=self.shard_id,
            last_hour=last_hour,
            trained_days=len(trained),
            latest_trained_day=latest,
            staleness_hours=staleness_hours(last_hour, latest),
            swap_count=service.retrain_count - self._retrains_before,
            retrain_count=service.retrain_count,
            ready=bool(trained),
            ingest_queue_depth=self._queue.qsize(),
            memo_entries=stats["memo_entries"],
            memo_hits=stats["memo_hits"],
            memo_misses=stats["memo_misses"],
            days_lost=report.days_lost if report is not None else (),
        ), delta

    def _op_checkpoint(self, directory: str) -> Optional[int]:
        self._op_drain()
        with self._write_lock:
            self.service.snapshot(directory)
            return self.service.last_hour

    def _op_stop(self, drain: bool) -> None:
        try:
            if drain:
                self._op_drain()
        finally:
            # abortive stop, or a drain that failed: discard queued
            # hours (the last checkpoint, not the queue, is the recovery
            # source) so the sentinel preempts them
            while True:
                try:
                    self._queue.get_nowait()
                except queue.Empty:
                    break
                self._queue.task_done()
            self._queue.put(None)
            self._thread.join(timeout=self._STOP_JOIN_TIMEOUT)
        if self._thread.is_alive():
            raise RuntimeError(
                f"ingest thread still alive {self._STOP_JOIN_TIMEOUT}s "
                "after stop")


def shard_worker_main(conn: "Connection", shard_id: int, wan: CloudWAN,
                      config: ServiceConfig,
                      restore_dir: Optional[str] = None,
                      obs_enabled: bool = False) -> None:
    """Run one shard worker until a ``stop`` message arrives."""
    # what a fork inherits is the front's heap, not this worker's garbage:
    # no collection here should walk it (docs/operations.md, Shard layout)
    gc.freeze()
    if obs_enabled:
        obs.enable(fresh=True)
    server = ShardServer(shard_id, wan, config, restore_dir,
                         ship_metrics=obs_enabled)
    try:
        while True:
            op, *payload = conn.recv()
            if op == "ingest":
                server.ingest(*payload)
                continue
            conn.send(server.handle(op, *payload))
            if op == "stop":
                return
    except EOFError:
        # parent went away without a stop: exit quietly, nothing to
        # reply to (the checkpointed state on disk is the recovery path)
        return
    finally:
        conn.close()
