"""The serving daemon: sharded ingest, scatter-gather queries, lifecycle.

:class:`ServeDaemon` is the long-running form of
:class:`~repro.core.service.TipsyService`: an hourly
telemetry stream goes in, sharded by feature-key hash
(:mod:`repro.serve.sharding`) across shard servers
(:class:`~repro.serve.worker.ShardServer`) that each hold one
:class:`~repro.core.service.TipsyService`; batched
``predict_batch``/``what_if`` queries are answered from the daemon's
memo, or scatter to the owning shards and gather back in the caller's
order.  Two worker modes share every other code path, the shard server
included:

* ``process`` (the deployment shape) — one OS process per shard, talking
  over a pipe (:mod:`repro.serve.worker`); per-shard retrains run in
  parallel across cores and never touch the parent's query latency;
* ``inline`` — shards live in the daemon process with one ingest thread
  each; cheap to start, used by tests and available for tiny deployments.

**Equivalence.**  A sharded prediction is bit-identical to the
single-process service fed the same stream: every model grain keys on
``src_asn``, so a shard's counts for its keys equal the unsharded
service's counts for the same keys, and ``what_if`` re-runs the exact
:func:`~repro.core.base.group_flows` /
:func:`~repro.core.base.spill_from_groups` accumulation parent-side
over shard-computed predictions (``tests/serve/test_daemon_equivalence.py``).

**Warm reads.**  Callers repeat their questions, so the daemon keeps
the answers its shards have given (an
:class:`~repro.util.cache.AnswerMemo`, the class each shard's service
remembers its own in) and only the contexts it does not hold cross a
pipe.  A memo is valid for one publication of the shards' suites: each
``answer`` reply is tagged with
the day of the suite that gave it, the daemon's *day* is that of the
newest hour it has fed, and a reply is stored only if its tag is the day
the query read when it began — into the memo it read then, which
``ingest_hour`` replaces, by one assignment, *before* any shard is sent
the first hour of a new day.  The invariant: an entry of day *D* was
answered by its owning shard's suite *D*, and while the daemon's day is
*D* no shard has been sent an hour of a later day, so none can have
published past *D* — a hit is bit-identical to what the hop would return
now.  A shard still retraining (tag = yesterday) is not cached and keeps
being asked.  A hit takes no daemon lock and contacts no shard: a dead
worker is noticed by the next miss, feed, ``status`` or ``checkpoint``,
and any :class:`ShardError` empties the memo (``docs/operations.md``).

**Lifecycle.**  ``checkpoint`` holds back the feed, drains in-flight
ingest, snapshots every shard into ``<dir>/shard-NN/``
(``docs/storage.md``), then commits a ``serve.json`` manifest naming
the hour the snapshots hold by atomic rename — a checkpoint without a
manifest is invisible, so a crash mid-checkpoint leaves the previous
one intact.  ``resume`` restores each shard from its segments and
continues ingesting at ``last_hour + 1`` with bit-identical answers.
``shutdown(drain=True)`` stops accepting work, drains queues, and joins
the workers; see ``docs/operations.md`` for the runbook.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, AbstractSet, Any, Dict, FrozenSet,
                    Iterable, List, Optional, Protocol, Sequence, Tuple, Union,
                    cast)

from ..core.base import (NO_LINKS, Prediction, group_flows,
                         spill_from_groups)
from ..core.service import Answer, Memo, ServiceConfig
from ..obs import runtime as obs
from ..pipeline.records import AggColumns, AggHour, FlowContext
from ..topology.wan import CloudWAN
from ..util.cache import AnswerMemo
from .health import DaemonStatus, export_status_gauges
from .sharding import (SHARD_HASH_SEED, SHARD_LAYOUT_VERSION, split_columns,
                       split_indices)
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

    def __init__(self, shard_id: int, wan: CloudWAN, config: ServiceConfig,
                 restore_dir: Optional[str] = None,
                 obs_enabled: bool = False):
        self.shard_id = shard_id
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        self._conn: "Connection" = parent_conn
        # sends from the ingest path and the query path may come from
        # different threads; one lock keeps pipe messages whole
        self._send_lock = threading.Lock()
        self.process = multiprocessing.Process(
            target=shard_worker_main,
            args=(child_conn, shard_id, wan, config, restore_dir,
                  obs_enabled),
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
        # serializes scatter-gather conversations (queries, status,
        # checkpoints) across caller threads; ingest does not take it,
        # so feeding the stream never waits on a query and vice versa
        self._query_lock = threading.Lock()
        # feed vs checkpoint: an hour is on every shard or on none when
        # a snapshot is cut.  Taken before _query_lock, never by a query
        self._feed_lock = threading.Lock()
        self._last_hour: Optional[int] = None
        # _last_hour's day and the shards' answers under it: read once
        # by a query, replaced whole at each day crossing
        self._memo: Memo = AnswerMemo(self.config.service.memo_size)
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
                self._admit_locked(last)  # not yet shared: no lock to hold
        for shard_id, shard_dir in enumerate(shard_dirs):
            if self.config.workers == "process":
                handle: _ShardHandle = _ProcessShard(
                    shard_id, self.wan, self.config.service, shard_dir,
                    obs_enabled=obs.enabled())
            else:
                handle = _InlineShard(
                    shard_id, self.wan, self.config.service, shard_dir)
            self._handles.append(handle)
        self._started = True
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
        """Stop the workers; ``drain`` finishes queued ingest first."""
        if self._stopped:
            return
        self._stopped = True
        failures: List[str] = []
        with self._query_lock:
            for handle in self._handles:
                try:
                    handle.stop(drain)
                except ShardError as error:
                    failures.append(str(error))
        if failures:
            raise ShardError("; ".join(failures))

    # -- ingest ---------------------------------------------------------------

    def ingest_hour(self, hour: int, records: AggHour) -> None:
        """Feed one hour of telemetry; returns without waiting.

        Every shard receives its slice of the columns — including an
        empty one — so day crossings (and with them retrains and window
        evictions) happen at the same hours on every shard as they would
        in the single-process service.  Rows labelled with another hour,
        or an hour older than the last one fed (equal hours may repeat),
        raise ``ValueError`` before any shard is sent anything.
        """
        self._check_serving()
        columns = AggColumns.of(hour, records)
        shards = split_columns(columns, self.config.n_shards)
        try:
            with self._feed_lock:
                self._admit_locked(hour)
                for handle, shard_columns in zip(self._handles, shards):
                    handle.ingest(hour, shard_columns)
        except ShardError:
            self._memo.clear()
            raise
        if obs.enabled():
            obs.count("serve.ingest.hours")
            obs.count("serve.ingest.records", float(columns.n_records))

    def _admit_locked(self, hour: int) -> None:
        """Refuse an hour out of time order; else make it the last fed
        and, if it starts a day, retire the memo — before any shard
        hears of the new day (caller holds ``_feed_lock``)."""
        if self._last_hour is not None and hour < self._last_hour:
            raise ValueError(
                f"hour {hour} is older than hour {self._last_hour}, the last "
                "one fed: telemetry must be ingested in time order")
        self._last_hour = hour
        if hour // 24 != self._memo.day:
            self._memo = AnswerMemo(
                self.config.service.memo_size, hour // 24, self._memo)

    def drain(self) -> None:
        """Block until every queued hour is applied on every shard."""
        self._check_serving()
        with self._query_lock:
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
        """Top-k predictions for many flows, in the caller's order.

        From the memo, else scatter by owning shard, gather, reassemble
        — bit-identical to :meth:`TipsyService.predict_batch` on the
        same trained stream.
        """
        self._check_serving()
        prior = frozenset(unavailable)
        with obs.timed("serve.predict_batch"):
            out = self._by_owner(
                ServiceConfig.withdrawal_model if prior
                else ServiceConfig.primary_model, contexts, k, prior)
        if obs.enabled():
            obs.count("serve.predict.batches")
            obs.count("serve.predict.flows", float(len(contexts)))
        return [list(answer) for answer in out]

    def what_if(
        self,
        flows: Sequence[Tuple[FlowContext, float]],
        withdrawn: AbstractSet[int],
        k: Optional[int] = None,
    ) -> Dict[int, float]:
        """Predicted per-link byte spill if ``withdrawn`` links go away.

        Flows are grouped parent-side at the withdrawal model's feature
        grain with the same :func:`group_flows` the single service uses,
        each group's prediction comes from its owning shard, and the
        spill accumulation re-runs :func:`spill_from_groups` over the
        groups in their original order — so the result is bit-identical
        to the unsharded ``what_if``, not merely close.
        """
        self._check_serving()
        with obs.timed("serve.what_if"):
            group_contexts, group_bytes = group_flows(
                ServiceConfig.withdrawal_grain.key, flows)
            if not group_contexts:
                return {}
            answers = self._by_owner(ServiceConfig.withdrawal_model,
                                     group_contexts, k, frozenset(withdrawn))
            spill = spill_from_groups(zip(answers, group_bytes))
        if obs.enabled():
            obs.count("serve.what_if.calls")
            obs.count("serve.what_if.flows", float(len(flows)))
        return spill

    # -- health / status ------------------------------------------------------

    def status(self) -> DaemonStatus:
        """Gather per-shard health, merge worker metrics, export gauges."""
        self._check_serving()
        with self._query_lock:
            replies = self._gather("status")
        for _health, delta in replies:
            if delta is not None and obs.enabled():
                obs.registry().merge(delta)
        status = DaemonStatus.from_shards(
            tuple(health for health, _delta in replies),
            workers=self.config.workers, front=self._memo.stats())
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
        with obs.timed("serve.checkpoint"), self._feed_lock, self._query_lock:
            self._gather("drain")
            hours = self._gather("checkpoint", (
                (shard_id, (str(root / f"shard-{shard_id:02d}"),))
                for shard_id in range(self.config.n_shards)))
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

    def _gather(self, op: str, requests: Optional[
            Iterable[Tuple[int, Tuple[object, ...]]]] = None) -> List[Any]:
        """The one scatter/gather: send ``op`` to the addressed shards
        (every shard, no payload, by default), read every reply, and
        only then raise the first failure.

        Caller must hold ``_query_lock``.  Every shard whose request was
        sent has its reply read before this returns or raises, whatever
        any shard answered — an unread reply would be taken for the next
        conversation's answer.  ``requests`` is consumed lazily, so a
        shard works on its slice while the next one's is being built.
        """
        if requests is None:
            requests = ((i, ()) for i in range(self.config.n_shards))
        failures: List[str] = []
        sent: List[_ShardHandle] = []
        for shard_id, payload in requests:
            handle = self._handles[shard_id]
            try:
                handle.begin(op, *payload)
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
            self._memo.clear()
            raise ShardError(failures[0])
        return results

    def _by_owner(self, name: str, contexts: Sequence[FlowContext],
                  k: Optional[int], prior: FrozenSet[int]) -> List[Answer]:
        """Model ``name``'s per-context answers in the caller's order:
        the memo's, else the owning shard's — each distinct missing
        context asked once, ``()`` where a shard returned short.  A bad
        ``k`` is a ``ValueError`` before the memo or any shard is read."""
        shape = (name, self.config.service.query_k(k), prior)
        memo = self._memo  # read once: its day is this query's day
        found, n_missing = memo.lookup(shape, contexts)
        if not n_missing:
            return cast(List[Answer], found)
        missing = list(dict.fromkeys(
            c for c, answer in zip(contexts, found) if answer is None))
        indices = split_indices(missing, self.config.n_shards)
        busy = [(shard_id, [missing[i] for i in positions])
                for shard_id, positions in enumerate(indices) if positions]
        with self._query_lock:
            replies = self._gather("answer", (
                (shard_id, (name, asked, k, prior))
                for shard_id, asked in busy))
        fresh: Dict[FlowContext, Answer] = {}
        for (_shard_id, asked), (day, answers) in zip(busy, replies):
            learnt = dict(zip(asked, answers))
            fresh.update(learnt)
            if day == memo.day:
                memo.store(shape, learnt)
        return [fresh.get(context, ()) if answer is None else answer
                for context, answer in zip(contexts, found)]


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
    # checkpoint() calls this while holding _query_lock on purpose:
    # queries must observe the old checkpoint or the new one, never a
    # half-committed swap, so the manifest IO stays inside the critical
    # section (docs/operations.md, "checkpoint stalls queries")
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
