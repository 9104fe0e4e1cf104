"""Daemon lifecycle: drain, checkpoint, restart-from-snapshot recovery."""

import json
import multiprocessing
import os
import signal
import threading
import time
from unittest import mock

import pytest

from repro.core.historical import HistoricalModel
from repro.core.service import ServiceConfig, TipsyService
from repro.core.window import RollingWindow
from repro.obs import runtime as obs
from repro.serve import DaemonConfig, ServeDaemon, ShardError
from repro.serve import daemon as daemon_mod
from repro.serve import worker as worker_mod
from repro.serve.daemon import MANIFEST_NAME, read_manifest
from repro.serve.sharding import shard_of
from repro.util.cache import AnswerMemo

from .conftest import HOURS


def _daemon(serve_world, workers="inline", n_shards=3):
    return ServeDaemon(serve_world.scenario.wan, DaemonConfig(
        n_shards=n_shards, workers=workers,
        service=serve_world.config)).start()


class TestDrain:
    def test_shutdown_drains_in_flight_ingest(self, serve_world, tmp_path):
        """Hours queued but not yet applied are finished, not dropped.

        Ingest is fire-and-forget, so at shutdown time the queues can
        still hold work.  A draining shutdown must apply all of it: the
        state checkpointed just before equals the fully-ingested
        reference.
        """
        daemon = _daemon(serve_world)
        for hour, records in enumerate(serve_world.hourly):
            daemon.ingest_hour(hour, records)  # no drain in between
        daemon.checkpoint(tmp_path)  # drains, then snapshots
        daemon.shutdown(drain=True)

        resumed = ServeDaemon.resume(tmp_path, serve_world.scenario.wan,
                                     workers="inline")
        try:
            contexts = serve_world.contexts[:200]
            assert (resumed.predict_batch(contexts)
                    == serve_world.reference.predict_batch(contexts))
        finally:
            resumed.shutdown()

    def test_drain_blocks_until_queues_empty(self, serve_world):
        daemon = _daemon(serve_world)
        try:
            for hour in range(30):
                daemon.ingest_hour(hour, serve_world.hourly[hour])
            daemon.drain()
            status = daemon.status()
            assert status.ingest_backlog == 0
            assert status.last_hour == 29
        finally:
            daemon.shutdown()


class TestRestartRecovery:
    @pytest.mark.parametrize("workers", ["inline", "process"])
    def test_resume_is_bit_identical_to_uninterrupted(
            self, serve_world, tmp_path, workers):
        """Kill mid-stream, resume, finish: same answers as never dying."""
        cut = 60  # mid-day, mid-window: the awkward restart point
        first = _daemon(serve_world, workers=workers)
        for hour in range(cut):
            first.ingest_hour(hour, serve_world.hourly[hour])
        first.checkpoint(tmp_path)
        first.shutdown(drain=True)

        resumed = ServeDaemon.resume(tmp_path, serve_world.scenario.wan,
                                     workers=workers)
        try:
            assert resumed.last_hour == cut - 1
            for hour in range(cut, HOURS):
                resumed.ingest_hour(hour, serve_world.hourly[hour])
            resumed.drain()
            contexts = serve_world.contexts[:300]
            assert (resumed.predict_batch(contexts)
                    == serve_world.reference.predict_batch(contexts))
        finally:
            resumed.shutdown()

    @pytest.mark.parametrize("workers", ["inline", "process"])
    def test_degraded_resume_is_visible_and_exact_on_what_survived(
            self, serve_world, tmp_path, workers):
        """A byte flipped in one shard's day segment between checkpoint
        and resume: status names the shard and the day, the other shard
        answers as if nothing happened, and the damaged one answers
        exactly as a service that never saw the lost day."""
        cut, lost_day = 60, 1
        first = _daemon(serve_world, workers=workers, n_shards=2)
        for hour in range(cut):
            first.ingest_hour(hour, serve_world.hourly[hour])
        first.checkpoint(tmp_path)
        first.shutdown(drain=True)
        segment = tmp_path / "shard-01" / f"day-{lost_day:06d}.npz"
        damaged = bytearray(segment.read_bytes())
        damaged[len(damaged) // 2] ^= 0x01
        segment.write_bytes(bytes(damaged))

        wan = serve_world.scenario.wan
        survivors = TipsyService(wan, serve_world.config)
        for hour in range(cut):
            if hour // 24 != lost_day:
                survivors.ingest_hour(hour, serve_world.hourly[hour])
        whole = TipsyService(wan, serve_world.config)
        for hour in range(cut):
            whole.ingest_hour(hour, serve_world.hourly[hour])

        obs.enable(fresh=True)
        resumed = ServeDaemon.resume(tmp_path, wan, workers=workers)
        try:
            status = resumed.status()
            assert [s.days_lost for s in status.shards] == [(), (lost_day,)]
            lines = status.format_text().splitlines()
            assert "LOST" not in lines[1]
            assert lines[2].endswith(f"LOST days [{lost_day}]")
            gauges = obs.snapshot().gauges
            assert gauges["serve.shard00.days_lost"] == 0.0
            assert gauges["serve.shard01.days_lost"] == 1.0
            owners = [shard_of(context.src_asn, 2)
                      for context in serve_world.contexts]
            assert {0, 1} <= set(owners)
            answers = resumed.predict_batch(serve_world.contexts)
            for oracle, shard_id in ((whole, 0), (survivors, 1)):
                mine = [context for context, owner
                        in zip(serve_world.contexts, owners)
                        if owner == shard_id]
                assert ([answer for answer, owner in zip(answers, owners)
                         if owner == shard_id]
                        == oracle.predict_batch(mine))
            assert whole.predict_batch(serve_world.contexts) != answers
        finally:
            resumed.shutdown()

    def test_checkpoint_manifest_is_complete(self, serve_world, tmp_path):
        daemon = _daemon(serve_world, n_shards=2)
        try:
            for hour in range(26):
                daemon.ingest_hour(hour, serve_world.hourly[hour])
            manifest_path = daemon.checkpoint(tmp_path)
        finally:
            daemon.shutdown()
        assert manifest_path == tmp_path / MANIFEST_NAME
        manifest = read_manifest(tmp_path)
        assert manifest["n_shards"] == 2
        assert manifest["last_hour"] == 25
        assert (tmp_path / "shard-00").is_dir()
        assert (tmp_path / "shard-01").is_dir()


class TestConcurrentCheckpoint:
    """docs/operations.md: the feed and a checkpoint may run at once."""

    @pytest.mark.parametrize("workers", ["inline", "process"])
    def test_hour_fed_mid_checkpoint_lands_on_all_shards_or_none(
            self, serve_world, tmp_path, workers):
        """A feeder thread offers hour 30 between the two shards'
        snapshots.  The checkpoint must not hold it on one shard only:
        the resumed daemon, fed on from the hour the manifest names,
        answers every context as the uninterrupted service does."""
        daemon = _daemon(serve_world, workers=workers, n_shards=2)
        for hour in range(30):
            daemon.ingest_hour(hour, serve_world.hourly[hour])
        feeder = threading.Thread(
            target=daemon.ingest_hour, args=(30, serve_world.hourly[30]))
        second = daemon._handles[1]
        begin = second.begin

        def begin_after_feeder_tried(op, *payload):
            if op == "checkpoint":  # shard 0's snapshot is cut or queued
                feeder.start()
                feeder.join(0.5)  # fed by now, or waiting for the manifest
            begin(op, *payload)

        second.begin = begin_after_feeder_tried
        try:
            daemon.checkpoint(tmp_path)
            feeder.join(30)
            assert not feeder.is_alive()
        finally:
            daemon.shutdown(drain=True)

        resumed = ServeDaemon.resume(tmp_path, serve_world.scenario.wan,
                                     workers=workers)
        try:
            assert resumed.last_hour == read_manifest(tmp_path)["last_hour"]
            for hour in range(resumed.last_hour + 1, HOURS):
                resumed.ingest_hour(hour, serve_world.hourly[hour])
            resumed.drain()
            contexts = serve_world.contexts
            assert (resumed.predict_batch(contexts)
                    == serve_world.reference.predict_batch(contexts))
        finally:
            resumed.shutdown()

    def test_reads_never_wait_for_a_checkpoint(self, serve_world,
                                               tmp_path, monkeypatch):
        """Shard 1 is parked inside its snapshot, so the checkpoint holds
        both daemon locks; from another thread, a batch of contexts never
        asked before and a ``what_if`` each return the single service's
        answer before the shard is released."""
        daemon = _daemon(serve_world, n_shards=2)
        oracle = TipsyService(serve_world.scenario.wan, serve_world.config)
        for hour in range(30):
            daemon.ingest_hour(hour, serve_world.hourly[hour])
            oracle.ingest_hour(hour, serve_world.hourly[hour])
        contexts = serve_world.contexts[:120]
        flows = [(context, float(10 + i)) for i, context
                 in enumerate(serve_world.contexts[:200])]
        withdrawn = frozenset(sorted(
            link.link_id for link in serve_world.scenario.wan.links)[:3])
        parked, release = threading.Event(), threading.Event()
        snapshot = RollingWindow.snapshot

        def parked_snapshot(window, directory):
            if str(directory).endswith("shard-01"):
                parked.set()
                assert release.wait(30)
            return snapshot(window, directory)

        monkeypatch.setattr(RollingWindow, "snapshot", parked_snapshot)
        checkpointer = threading.Thread(target=daemon.checkpoint,
                                        args=(tmp_path,))
        answers = []
        reader = threading.Thread(target=lambda: answers.extend((
            daemon.predict_batch(contexts),
            daemon.what_if(flows, withdrawn))))
        try:
            checkpointer.start()
            assert parked.wait(30)
            reader.start()
            reader.join(10)
            assert not reader.is_alive(), "a read waited for the checkpoint"
            assert checkpointer.is_alive()  # the shard is still parked
            assert answers == [oracle.predict_batch(contexts),
                               oracle.what_if(flows, withdrawn)]
        finally:
            release.set()
            checkpointer.join(30)
            reader.join(30)
            daemon.shutdown()
        assert read_manifest(tmp_path)["last_hour"] == 29

    def test_shards_at_different_hours_commit_no_manifest(
            self, serve_world, tmp_path):
        daemon = _daemon(serve_world, n_shards=2)
        try:
            daemon.ingest_hour(0, serve_world.hourly[0])
            daemon.drain()
            daemon._handles[1].window.ingest_hour(1, [])  # behind the feed
            with pytest.raises(ShardError, match="different hours"):
                daemon.checkpoint(tmp_path)
            assert not (tmp_path / MANIFEST_NAME).exists()
        finally:
            daemon.shutdown()


class TestOneServicePerShard:
    """Each shard hour is ingested once and each checkpoint restored
    once, only the front builds models, and the service-side counters
    say so."""

    def test_one_ingest_and_one_restore_per_shard(
            self, serve_world, tmp_path, monkeypatch):
        calls = {"ingest": 0, "restore": 0}
        ingest, restore = RollingWindow.ingest_hour, RollingWindow.restore

        def counted_ingest(self, hour, records):
            calls["ingest"] += 1
            ingest(self, hour, records)

        def counted_restore(directory):
            calls["restore"] += 1
            return restore(directory)

        monkeypatch.setattr(RollingWindow, "ingest_hour", counted_ingest)
        monkeypatch.setattr(RollingWindow, "restore", counted_restore)
        daemon = _daemon(serve_world, n_shards=3)
        for hour in range(26):
            daemon.ingest_hour(hour, serve_world.hourly[hour])
        daemon.checkpoint(tmp_path)
        daemon.shutdown()
        assert calls == {"ingest": 26 * 3, "restore": 0}
        ServeDaemon.resume(tmp_path, serve_world.scenario.wan,
                           workers="inline").shutdown()
        assert calls == {"ingest": 26 * 3, "restore": 3}

    def test_only_the_front_builds_models(self, serve_world, monkeypatch):
        """A publication builds one suite, the front's: three historical
        models, none on a shard, and no shard holds an answer memo."""
        builds = []
        build = HistoricalModel.__init__

        def counted_build(model, *args, **kwargs):
            builds.append(model)
            build(model, *args, **kwargs)

        monkeypatch.setattr(HistoricalModel, "__init__", counted_build)
        daemon = _daemon(serve_world, n_shards=3)
        try:
            per_hour = []
            for hour in range(49):  # day 0 opens, days 1 and 2 cross
                before = len(builds)
                daemon.ingest_hour(hour, serve_world.hourly[hour])
                per_hour.append(len(builds) - before)
            daemon.drain()
            assert {hour: n for hour, n in enumerate(per_hour) if n} == {
                0: 3, 24: 3, 48: 3}
            assert not [found for handle in daemon._handles
                        for found in _reachable(handle)
                        if isinstance(found, AnswerMemo)]
        finally:
            daemon.shutdown()

    @pytest.mark.parametrize("workers", ["inline", "process"])
    def test_service_counters_match_the_daemons(self, serve_world, workers):
        obs.enable(fresh=True)
        daemon = _daemon(serve_world, workers=workers, n_shards=2)
        try:
            for hour in range(50):
                daemon.ingest_hour(hour, serve_world.hourly[hour])
            daemon.drain()
            daemon.status()  # merges the workers' deltas in process mode
        finally:
            daemon.shutdown()
        counters = obs.snapshot().counters
        assert counters["serve.ingest.records"] > 0
        assert (counters["service.ingest.records"]
                == counters["serve.ingest.records"])
        assert counters["service.ingest.hours"] == 2 * 50
        # day boundaries at hours 0, 24 and 48, on each of two shards
        assert counters["service.retrain.count"] == 2 * 3


def _reachable(root):
    """Every object reachable from ``root`` through this package's
    objects' attributes and the containers they hold."""
    seen, stack = set(), [root]
    while stack:
        found = stack.pop()
        if id(found) in seen:
            continue
        seen.add(id(found))
        yield found
        if isinstance(found, dict):
            stack.extend(found.values())
        elif isinstance(found, (list, tuple)):
            stack.extend(found)
        elif (type(found).__module__.startswith("repro.")
              and hasattr(found, "__dict__")):
            stack.extend(vars(found).values())


def _wedged_worker(conn, shard_id, config, restore_dir=None,
                   obs_enabled=False):
    """Worker that acks the stop protocol but refuses to die.

    Ignores SIGTERM (as user code loaded into a worker legitimately
    can) and sleeps forever after the ack — the shape of the shutdown
    hang the terminate->kill escalation in ``_ProcessShard.stop``
    exists for.
    """
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        message = conn.recv()
        if message[0] == "stop":
            conn.send(("ok", None))
            while True:
                time.sleep(60)


def _mute_worker(conn, shard_id, config, restore_dir=None,
                 obs_enabled=False):
    """Worker that dies without acking stop (crash during shutdown)."""
    conn.recv()
    conn.close()
    os._exit(1)


class TestShutdownEscalation:
    """Regression: a wedged worker must never hang or leak at stop()."""

    @pytest.fixture(autouse=True)
    def _fast_timeouts(self, monkeypatch):
        monkeypatch.setattr(
            daemon_mod._ProcessShard, "_STOP_JOIN_TIMEOUT", 0.3)
        monkeypatch.setattr(
            daemon_mod._ProcessShard, "_ESCALATE_JOIN_TIMEOUT", 1.0)
        monkeypatch.setattr(
            daemon_mod._InlineShard, "_STOP_JOIN_TIMEOUT", 0.3)

    def test_stop_kills_sigterm_ignoring_worker(self, serve_world,
                                                monkeypatch):
        monkeypatch.setattr(
            daemon_mod, "shard_worker_main", _wedged_worker)
        shard = daemon_mod._ProcessShard(0, serve_world.config)
        started = time.monotonic()
        shard.stop(drain=False)  # used to leak the process silently
        assert time.monotonic() - started < 10
        assert not shard.process.is_alive()
        assert shard.process.exitcode == -signal.SIGKILL

    def test_stop_reaps_worker_that_dies_without_ack(self, serve_world,
                                                     monkeypatch):
        monkeypatch.setattr(
            daemon_mod, "shard_worker_main", _mute_worker)
        shard = daemon_mod._ProcessShard(0, serve_world.config)
        with pytest.raises(ShardError, match="worker died"):
            shard.stop(drain=False)
        assert not shard.process.is_alive()

    def test_inline_stop_surfaces_stuck_ingest_thread(self, serve_world,
                                                      monkeypatch):
        shard = daemon_mod._InlineShard(0, serve_world.config)
        entered = threading.Event()
        release = threading.Event()

        def wedged_ingest(hour, records):
            entered.set()
            release.wait()

        monkeypatch.setattr(shard.window, "ingest_hour", wedged_ingest)
        shard.ingest(0, [])
        assert entered.wait(5)  # the thread is inside the slow ingest
        with pytest.raises(ShardError, match="ingest thread"):
            shard.stop(drain=False)
        release.set()  # let the (daemon) thread run to the sentinel
        shard._thread.join(5)


class TestWorkerFreezesInheritedHeap:
    def test_freezes_before_building_its_server(self, serve_world,
                                                monkeypatch):
        """A forked worker's heap is the front's objects, not garbage of
        its own: ``gc.freeze()`` comes first, so no full collection
        walks them inside a serving window (ROADMAP 1(i))."""
        calls = []
        fake_gc = mock.Mock()
        fake_gc.freeze.side_effect = lambda: calls.append("freeze")
        real_server = worker_mod.ShardServer

        def server(*args, **kwargs):
            calls.append("server")
            return real_server(*args, **kwargs)

        monkeypatch.setattr(worker_mod, "gc", fake_gc)
        monkeypatch.setattr(worker_mod, "ShardServer", server)
        front, back = multiprocessing.Pipe()
        front.send(("stop", False))
        worker_mod.shard_worker_main(back, 0, serve_world.config)
        assert front.recv() == ("ok", None)
        assert calls == ["freeze", "server"]


class TestManifestValidation:
    def test_resume_without_checkpoint_fails(self, serve_world, tmp_path):
        with pytest.raises(ShardError, match="manifest"):
            ServeDaemon.resume(tmp_path, serve_world.scenario.wan,
                               workers="inline")

    def test_resume_under_wrong_shard_count_fails(self, serve_world,
                                                  tmp_path):
        daemon = _daemon(serve_world, n_shards=2)
        try:
            daemon.ingest_hour(0, serve_world.hourly[0])
            daemon.checkpoint(tmp_path)
        finally:
            daemon.shutdown()
        other = ServeDaemon(serve_world.scenario.wan, DaemonConfig(
            n_shards=3, workers="inline", service=serve_world.config))
        with pytest.raises(ShardError, match="shards"):
            other.start(resume_dir=tmp_path)

    def test_resume_under_wrong_layout_version_fails(self, serve_world,
                                                     tmp_path):
        daemon = _daemon(serve_world, n_shards=2)
        try:
            daemon.ingest_hour(0, serve_world.hourly[0])
            daemon.checkpoint(tmp_path)
        finally:
            daemon.shutdown()
        manifest_path = tmp_path / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        payload["layout_version"] = 999
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(ShardError, match="layout"):
            ServeDaemon.resume(tmp_path, serve_world.scenario.wan,
                               workers="inline")

    def test_manifest_role_keys_resume_bit_identically(self, serve_world,
                                                       tmp_path):
        daemon = _daemon(serve_world, n_shards=2)
        try:
            for hour in range(30):
                daemon.ingest_hour(hour, serve_world.hourly[hour])
            daemon.checkpoint(tmp_path)
        finally:
            daemon.shutdown()
        assert read_manifest(tmp_path)["service"] == {
            "memo_size": 65536, "prediction_k": 3,
            "primary_model": "Hist_AP/AL/A", "training_window_days": 3,
            "withdrawal_model": "Hist_AL+G"}
        resumed = ServeDaemon.resume(tmp_path, serve_world.scenario.wan,
                                     workers="inline")
        try:
            for hour in range(30, HOURS):
                resumed.ingest_hour(hour, serve_world.hourly[hour])
            resumed.drain()
            contexts, reference = serve_world.contexts, serve_world.reference
            flows = [(c, 1000.0 + i) for i, c in enumerate(contexts)]
            withdrawn = {reference.predict(contexts[0])[0].link_id}
            assert (resumed.predict_batch(contexts, unavailable=withdrawn)
                    == reference.predict_batch(contexts,
                                               unavailable=withdrawn))
            assert (resumed.what_if(flows, withdrawn)
                    == reference.what_if(flows, withdrawn))
        finally:
            resumed.shutdown()

    @pytest.mark.parametrize("change, match", [
        ({"withdrawal_model": "Hist_AP"}, "'Hist_AP' is not served"),
        ({"bogus": 1}, "bogus"),
    ])
    def test_resume_refuses_an_unfit_service_config(
            self, serve_world, tmp_path, change, match):
        daemon = _daemon(serve_world, n_shards=2)
        try:
            daemon.ingest_hour(0, serve_world.hourly[0])
            daemon.checkpoint(tmp_path)
        finally:
            daemon.shutdown()
        manifest_path = tmp_path / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        payload["service"].update(change)
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(ShardError, match=match) as raised:
            ServeDaemon.resume(tmp_path, serve_world.scenario.wan,
                               workers="inline")
        assert str(manifest_path) in str(raised.value)

    def test_config_rejects_bad_shapes(self, serve_world):
        with pytest.raises(ValueError):
            DaemonConfig(n_shards=0)
        with pytest.raises(ValueError):
            DaemonConfig(workers="fibers")
        assert DaemonConfig(service=ServiceConfig()).n_shards == 4