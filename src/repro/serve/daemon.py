"""The serving daemon: sharded ingest, reads from the published suite,
lifecycle.

:class:`ServeDaemon` is the long-running form of
:class:`~repro.core.service.TipsyService`: an hourly
telemetry stream goes in, sharded by feature-key hash
(:mod:`repro.serve.sharding`) across shard servers
(:class:`~repro.serve.worker.ShardServer`) that each hold one
:class:`~repro.core.window.RollingWindow` and fold it daily; batched
``predict_batch``/``what_if`` queries are answered in the daemon's own
process by one ``TipsyService``, the *front*, which serves the suite
built from the shards' merged folds.  Two worker modes share every
other code path, the shard server included:

* ``process`` (the deployment shape) — one OS process per shard, talking
  over a pipe (:mod:`repro.serve.worker`); per-shard folds run in
  parallel across cores;
* ``inline`` — shards live in the daemon process with one ingest thread
  each; cheap to start, used by tests and available for tiny deployments.

**Publication.**  A shard folds its window at the first hour of each
day.  The thread that feeds that hour then asks every shard for its
last fold, the days and base tables (AP, AL, A) (the ``publish`` op,
answered once the hour is applied: the feed waits for the slowest
fold).  Every model grain keys on ``src_asn``, so the shards' tables
are disjoint, and stacked they hold exactly the single-process
service's counts; the front builds the day's suite from them, the only
one the daemon builds, and swaps it in by one assignment
(:meth:`TipsyService.install`).  A resumed daemon takes one publication
in :meth:`ServeDaemon.start`.  Only publications cross a pipe for reads.

**Equivalence.**  A read is the front's ``predict_batch``/``what_if`` on
a suite built from the single-process service's counts, so a sharded
answer is bit-identical to the unsharded one by construction
(``tests/serve/test_daemon_equivalence.py``,
``tests/properties/test_prop_serving.py``).  A read takes no daemon
lock and contacts no shard: it never waits on a feed, a retrain or a
checkpoint, and one that races a publication gets the old suite or the
new one, never a mix.

**Failures.**  No answer is silently stale.  A publication that fails
raises :class:`ShardError` from the call that asked for it
(``ingest_hour`` or ``start``); from then on every read raises
``ShardError`` naming the day, until a publication for the current day
succeeds (each hour fed asks again).  A worker that dies mid-day fails
no read — the suite reads use is still the single service's for that
day — but the next feed, ``drain``, ``status`` or ``checkpoint`` raises
``ShardError`` naming the shard (``docs/operations.md``).

**Lifecycle.**  ``checkpoint`` holds back the feed, drains in-flight
ingest, snapshots every shard into ``<dir>/shard-NN/``
(``docs/storage.md``), then commits a ``serve.json`` manifest naming
the hour the snapshots hold by atomic rename — a checkpoint without a
manifest is invisible, so a crash mid-checkpoint leaves the previous
one intact.  ``resume`` restores each shard from its segments and
continues ingesting at ``last_hour + 1`` with bit-identical answers.
``shutdown(drain=True)`` stops accepting work, drains queues, joins the
workers, and drops the front's suite and memo; see
``docs/operations.md`` for the runbook.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, AbstractSet, Any, Dict, List, Optional,
                    Protocol, Sequence, Tuple, Union)

import numpy as np

from ..core.base import NO_LINKS, Prediction
from ..core.service import ServiceConfig, TipsyService
from ..core.window import Fold
from ..obs import runtime as obs
from ..pipeline.records import AggColumns, AggHour, FlowContext
from ..topology.wan import CloudWAN
from .health import DaemonStatus, export_status_gauges
from .sharding import SHARD_HASH_SEED, SHARD_LAYOUT_VERSION, split_columns
from .worker import ShardServer, shard_worker_main

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

#: checkpoint manifest file, committed last (atomic rename) so a
#: checkpoint is either complete or invisible
MANIFEST_NAME = "serve.json"

WORKER_MODES = ("process", "inline")


class ShardError(RuntimeError):
    """A shard worker reported an error (op failed or worker died)."""


@dataclass
class DaemonConfig:
    """Shard layout, worker mode, and the per-shard service policy."""

    n_shards: int = 4
    workers: str = "process"
    service: ServiceConfig = field(default_factory=ServiceConfig)

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.workers not in WORKER_MODES:
            raise ValueError(
                f"workers must be one of {WORKER_MODES}, got {self.workers!r}")


# -- shard handles ------------------------------------------------------------


class _ShardHandle(Protocol):
    """What the daemon needs of a shard, whichever side of a pipe it is
    on.  ``begin`` sends one op, ``finish`` reads its ``(status,
    result)`` reply; every ``begin`` is paired with exactly one
    ``finish`` (:meth:`ServeDaemon._gather` is the only caller)."""

    shard_id: int

    def ingest(self, hour: int, columns: AggColumns) -> None: ...

    def begin(self, op: str, *payload: object) -> None: ...

    def finish(self) -> Tuple[str, object]: ...

    def stop(self, drain: bool) -> None: ...


class _InlineShard(ShardServer):
    """A shard served in this process: the worker's server, minus the pipe."""

    _reply: Tuple[str, object] = ("error", "finish() without begin()")

    def begin(self, op: str, *payload: object) -> None:
        self._reply = self.handle(op, *payload)

    def finish(self) -> Tuple[str, object]:
        return self._reply

    def stop(self, drain: bool) -> None:
        status, result = self.handle("stop", drain)
        if status != "ok":
            raise ShardError(str(result))


class _ProcessShard:
    """A shard in a worker process behind a duplex pipe."""

    #: stop() escalation ladder: graceful join, then SIGTERM + join,
    #: then SIGKILL + join (class attrs so tests can shrink them)
    _STOP_JOIN_TIMEOUT = 30.0
    _ESCALATE_JOIN_TIMEOUT = 5.0

    def __init__(self, shard_id: int, config: ServiceConfig,
                 restore_dir: Optional[str] = None,
                 obs_enabled: bool = False):
        self.shard_id = shard_id
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        self._conn: "Connection" = parent_conn
        # sends from the ingest path and a conversation may come from
        # different threads; one lock keeps pipe messages whole
        self._send_lock = threading.Lock()
        self.process = multiprocessing.Process(
            target=shard_worker_main,
            args=(child_conn, shard_id, config, restore_dir, obs_enabled),
            name=f"serve-shard-{shard_id:02d}",
            daemon=True)
        self.process.start()
        child_conn.close()

    def _send(self, message: Tuple[object, ...]) -> None:
        try:
            with self._send_lock:
                self._conn.send(message)
        except OSError as error:
            raise ShardError(
                f"shard {self.shard_id} worker died: {error!r}") from error

    def ingest(self, hour: int, columns: AggColumns) -> None:
        self._send(("ingest", hour, columns))

    def begin(self, op: str, *payload: object) -> None:
        self._send((op,) + payload)

    def finish(self) -> Tuple[str, object]:
        try:
            reply: Tuple[str, object] = self._conn.recv()
        except (EOFError, OSError) as error:
            return "error", f"shard {self.shard_id} worker died: {error!r}"
        return reply

    def stop(self, drain: bool) -> None:
        """Stop the worker, escalating terminate -> kill if it wedges.

        The protocol ack can succeed while the worker still refuses to
        exit (a non-daemon thread it spawned, a blocked flush, a SIGTERM
        handler installed by user code), so the reap path never trusts a
        single join: graceful join, then SIGTERM, then SIGKILL — and if
        even SIGKILL leaves the process visible, raise rather than leak
        it silently.  A stuck shard always surfaces as ShardError naming
        the shard, chained to the protocol error when there was one.
        """
        error: Optional[BaseException] = None
        try:
            self.begin("stop", drain)
            status, result = self.finish()
            if status != "ok":
                raise ShardError(str(result))
        except BaseException as exc:
            error = exc
        self.process.join(timeout=self._STOP_JOIN_TIMEOUT)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=self._ESCALATE_JOIN_TIMEOUT)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=self._ESCALATE_JOIN_TIMEOUT)
        stuck = self.process.is_alive()
        if stuck:  # pragma: no cover - SIGKILL cannot be ignored
            raise ShardError(
                f"shard {self.shard_id}: worker pid "
                f"{self.process.pid} survived terminate+kill"
            ) from error
        if error is not None:
            if isinstance(error, ShardError) or not isinstance(
                    error, Exception):
                raise error
            raise ShardError(
                f"shard {self.shard_id} stop: {error!r}") from error


# -- the daemon ---------------------------------------------------------------


class ServeDaemon:
    """Long-running sharded prediction service (see module docstring)."""

    def __init__(self, wan: CloudWAN, config: Optional[DaemonConfig] = None):
        self.wan = wan
        self.config = config or DaemonConfig()
        self._handles: List[_ShardHandle] = []
        # serializes conversations with the shards (publications,
        # drains, status, checkpoints) across caller threads; sending
        # an hour does not take it, and no read does
        self._shard_lock = threading.Lock()
        # feed vs checkpoint: an hour is on every shard or on none when
        # a snapshot is cut.  Taken before _shard_lock, never by a read
        self._feed_lock = threading.Lock()
        self._last_hour: Optional[int] = None
        # what reads ask: the shards' merged suite, swapped in whole at
        # each publication; the day it is for, and a day whose
        # publication failed (reads refuse while one is set)
        self._front = TipsyService(wan, self.config.service)
        self._published_day: Optional[int] = None
        self._unpublished: Optional[int] = None
        self._started = False
        self._stopped = False

    # -- lifecycle ------------------------------------------------------------

    def start(self, resume_dir: Optional[Union[str, Path]] = None
              ) -> "ServeDaemon":
        """Spawn the shard workers, optionally restoring a checkpoint."""
        if self._started:
            raise RuntimeError("daemon already started")
        shard_dirs: List[Optional[str]] = [None] * self.config.n_shards
        if resume_dir is not None:
            manifest = read_manifest(resume_dir)
            if manifest["n_shards"] != self.config.n_shards:
                raise ShardError(
                    f"checkpoint has {manifest['n_shards']} shards, daemon "
                    f"configured for {self.config.n_shards}; the shard "
                    "layout is part of the checkpoint format")
            shard_dirs = [str(Path(resume_dir) / f"shard-{i:02d}")
                          for i in range(self.config.n_shards)]
            last = manifest.get("last_hour")
            if isinstance(last, int):
                self._last_hour = last
        for shard_id, shard_dir in enumerate(shard_dirs):
            if self.config.workers == "process":
                handle: _ShardHandle = _ProcessShard(
                    shard_id, self.config.service, shard_dir,
                    obs_enabled=obs.enabled())
            else:
                handle = _InlineShard(
                    shard_id, self.config.service, shard_dir)
            self._handles.append(handle)
        self._started = True
        if self._last_hour is not None:
            try:  # not yet shared: no feed lock to hold
                self._publish_locked(self._last_hour // 24)
            except BaseException:
                with contextlib.suppress(ShardError):
                    self.shutdown(drain=False)
                raise
        return self

    @classmethod
    def resume(cls, directory: Union[str, Path], wan: CloudWAN,
               workers: str = "process") -> "ServeDaemon":
        """Start a daemon from a checkpoint, adopting its shard layout."""
        manifest = read_manifest(directory)
        n_shards = manifest["n_shards"]
        service = manifest["service"]
        assert isinstance(n_shards, int) and isinstance(service, dict)
        try:
            loaded = ServiceConfig.load(service)
        except (TypeError, ValueError) as error:
            raise ShardError(f"{Path(directory) / MANIFEST_NAME}: service "
                             f"config unusable ({error})") from None
        config = DaemonConfig(n_shards=n_shards, workers=workers,
                              service=loaded)
        daemon = cls(wan, config)
        return daemon.start(resume_dir=directory)

    def __enter__(self) -> "ServeDaemon":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        if not self._stopped:
            self.shutdown(drain=not any(exc))

    def shutdown(self, drain: bool = True) -> None:
        """Stop the workers; ``drain`` finishes queued ingest first.
        The front's suite and memo are dropped either way."""
        if self._stopped:
            return
        self._stopped = True
        self._front = TipsyService(self.wan, self.config.service)
        failures: List[str] = []
        with self._shard_lock:
            for handle in self._handles:
                try:
                    handle.stop(drain)
                except ShardError as error:
                    failures.append(str(error))
        if failures:
            raise ShardError("; ".join(failures))

    # -- ingest ---------------------------------------------------------------

    def ingest_hour(self, hour: int, records: AggHour) -> None:
        """Feed one hour of telemetry; returns once every shard is sent
        its slice, without waiting for it to be applied.

        Every shard receives its slice of the columns — including an
        empty one — so day crossings (and with them retrains and window
        evictions) happen at the same hours on every shard as they would
        in the single-process service.  Rows labelled with another hour,
        or an hour older than the last one fed (equal hours may repeat),
        raise ``ValueError`` before any shard is sent anything.  The
        first hour of a day (or any hour while the day has no suite
        published) waits for the day's publication.
        """
        self._check_serving()
        columns = AggColumns.of(hour, records)
        shards = split_columns(columns, self.config.n_shards)
        with self._feed_lock:
            self._feed_locked(hour, shards)
        if obs.enabled():
            obs.count("serve.ingest.hours")
            obs.count("serve.ingest.records", float(columns.n_records))

    def _feed_locked(self, hour: int, shards: Sequence[AggColumns]) -> None:
        """Refuse an hour out of time order; else send every shard its
        slice and, if the hour's day has no suite published yet, ask for
        one — the day is left unpublished, and reads refuse, if that
        fails (caller holds ``_feed_lock``)."""
        if self._last_hour is not None and hour < self._last_hour:
            raise ValueError(
                f"hour {hour} is older than hour {self._last_hour}, the last "
                "one fed: telemetry must be ingested in time order")
        self._last_hour = hour
        day = hour // 24
        try:
            for handle, shard_columns in zip(self._handles, shards):
                handle.ingest(hour, shard_columns)
            if day != self._published_day:
                self._publish_locked(day)
        finally:
            if day != self._published_day:
                self._unpublished = day

    def _publish_locked(self, day: int) -> None:
        """Ask every shard for its last fold once its queued hours are
        applied, and serve the suite of their union as day ``day``'s
        (the caller holds ``_feed_lock``, or is ``start``)."""
        with self._shard_lock:
            folds: List[Fold] = self._gather("publish")
        by_grain = zip(*(fold.tables for fold in folds))
        self._front.install(
            [{name: np.concatenate([table[name] for table in tables])
              for name in tables[0]} for tables in by_grain],
            tuple(sorted({d for fold in folds for d in fold.trained_on})))
        self._published_day, self._unpublished = day, None

    def drain(self) -> None:
        """Block until every queued hour is applied on every shard."""
        self._check_serving()
        with self._shard_lock:
            self._gather("drain")

    @property
    def last_hour(self) -> Optional[int]:
        """Newest hour handed to :meth:`ingest_hour` (or restored)."""
        return self._last_hour

    # -- queries --------------------------------------------------------------

    def predict_batch(self, contexts: Sequence[FlowContext],
                      k: Optional[int] = None,
                      unavailable: AbstractSet[int] = NO_LINKS,
                      ) -> List[List[Prediction]]:
        """Top-k predictions for many flows, in the caller's order: the
        front's :meth:`TipsyService.predict_batch` — bit-identical to the
        single-process service on the same trained stream."""
        front = self._reader()
        with obs.timed("serve.predict_batch"):
            out = front.predict_batch(contexts, k, unavailable)
        if obs.enabled():
            obs.count("serve.predict.batches")
            obs.count("serve.predict.flows", float(len(contexts)))
        return out

    def what_if(
        self,
        flows: Sequence[Tuple[FlowContext, float]],
        withdrawn: AbstractSet[int],
        k: Optional[int] = None,
    ) -> Dict[int, float]:
        """Predicted per-link byte spill if ``withdrawn`` links go away:
        the front's :meth:`TipsyService.what_if`, bit-identical to the
        unsharded answer, not merely close."""
        front = self._reader()
        with obs.timed("serve.what_if"):
            spill = front.what_if(flows, withdrawn, k)
        if obs.enabled():
            obs.count("serve.what_if.calls")
            obs.count("serve.what_if.flows", float(len(flows)))
        return spill

    # -- health / status ------------------------------------------------------

    def status(self) -> DaemonStatus:
        """Gather per-shard health, merge worker metrics, export gauges."""
        self._check_serving()
        with self._shard_lock:
            replies = self._gather("status")
        for _health, delta in replies:
            if delta is not None and obs.enabled():
                obs.registry().merge(delta)
        status = DaemonStatus.from_shards(
            tuple(health for health, _delta in replies),
            workers=self.config.workers, front=self._front.memo_stats())
        export_status_gauges(status)
        return status

    # -- checkpoint -----------------------------------------------------------

    def checkpoint(self, directory: Union[str, Path]) -> Path:
        """Drain, snapshot every shard, then commit the manifest.

        Returns the manifest path.  The manifest is written last and
        renamed into place atomically: a reader (or a resume) either
        sees the complete new checkpoint or none of it.  A concurrent
        :meth:`ingest_hour` waits for the manifest, whose ``last_hour``
        is the hour the snapshots report (nothing commits if they differ).
        """
        self._check_serving()
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        with obs.timed("serve.checkpoint"), self._feed_lock, self._shard_lock:
            self._gather("drain")
            hours = self._gather("checkpoint", [
                (str(root / f"shard-{shard_id:02d}"),)
                for shard_id in range(self.config.n_shards)])
            if len(set(hours)) != 1:
                raise ShardError(
                    f"shards snapshotted different hours {hours}; "
                    "checkpoint not committed")
            manifest_path = write_manifest(
                root, n_shards=self.config.n_shards,
                service=self.config.service, last_hour=hours[0])
        if obs.enabled():
            obs.count("serve.checkpoints")
        return manifest_path

    # -- internals ------------------------------------------------------------

    def _check_serving(self) -> None:
        if not self._started:
            raise RuntimeError("daemon not started (call start())")
        if self._stopped:
            raise RuntimeError("daemon already shut down")

    def _reader(self) -> TipsyService:
        """The service reads ask, once the current day's suite is in."""
        self._check_serving()
        if self._unpublished is not None:
            raise ShardError(
                f"day {self._unpublished} has no published suite: reads "
                "wait for a publication of the day that succeeds")
        return self._front

    def _gather(self, op: str, payloads: Optional[
            Sequence[Tuple[object, ...]]] = None) -> List[Any]:
        """The one conversation with the shards: send ``op`` to every
        shard (``payloads[i]`` to shard ``i``; none by default), read
        every reply, and only then raise the first failure.

        Caller must hold ``_shard_lock``.  Every shard whose request was
        sent has its reply read before this returns or raises, whatever
        any shard answered — an unread reply would be taken for the next
        conversation's answer.
        """
        failures: List[str] = []
        sent: List[_ShardHandle] = []
        for shard_id, handle in enumerate(self._handles):
            try:
                handle.begin(op, *(payloads[shard_id] if payloads else ()))
            except ShardError as error:
                failures.append(str(error))
            else:
                sent.append(handle)
        results: List[Any] = []
        for handle in sent:
            status, result = handle.finish()
            if status != "ok":
                failures.append(str(result))
            results.append(result)
        if failures:
            raise ShardError(failures[0])
        return results


# -- checkpoint manifest ------------------------------------------------------


def write_manifest(directory: Union[str, Path], n_shards: int,
                   service: ServiceConfig,
                   last_hour: Optional[int]) -> Path:
    """Atomically commit a checkpoint manifest (write tmp, rename)."""
    root = Path(directory)
    payload = {
        "layout_version": SHARD_LAYOUT_VERSION,
        "hash_seed": SHARD_HASH_SEED,
        "n_shards": n_shards,
        "last_hour": last_hour,
        "service": service.stored(),
    }
    path = root / MANIFEST_NAME
    tmp = root / (MANIFEST_NAME + ".tmp")
    # checkpoint() calls this while holding _shard_lock on purpose:
    # conversations must observe the old checkpoint or the new one, never
    # a half-committed swap, so the manifest IO stays inside the critical
    # section (docs/operations.md, "checkpoint stalls the feed")
    with open(tmp, "w", encoding="utf-8") as handle:  # repro: noqa[RA802]
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def read_manifest(directory: Union[str, Path]) -> Dict[str, object]:
    """Load and validate a checkpoint manifest.

    Raises :class:`ShardError` when the manifest is absent, unreadable,
    or written under a different shard layout — resuming under a
    mismatched layout would silently misroute keys.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise ShardError(
            f"{directory}: no serve checkpoint manifest ({error})") from None
    except ValueError as error:
        raise ShardError(
            f"{path}: unreadable manifest ({error})") from None
    if (payload.get("layout_version") != SHARD_LAYOUT_VERSION
            or payload.get("hash_seed") != SHARD_HASH_SEED):
        raise ShardError(
            f"{path}: checkpoint written under a different shard layout "
            f"(version {payload.get('layout_version')!r}); cannot resume")
    if not isinstance(payload.get("n_shards"), int):
        raise ShardError(f"{path}: manifest missing n_shards")
    if not isinstance(payload.get("service"), dict):
        raise ShardError(f"{path}: manifest missing service config")
    return payload
