"""The daemon's failure rules (docs/operations.md): no answer is silently
stale.  A failed op or a dead worker raises ``ShardError`` naming the
shard from the call that met it; a publication that fails leaves every
read raising ``ShardError`` naming the day until one succeeds; a worker
that dies mid-day fails no read, because what reads are answered from
is still the single service's suite for that day."""

import os
import signal

import pytest

from repro.core.service import TipsyService
from repro.serve import DaemonConfig, ServeDaemon, ShardError
from repro.serve.daemon import WORKER_MODES
from repro.serve.worker import ShardServer

#: past the first day-boundary retrain, short of the second
HOURS_FED = 30
#: the first hour of day 2
NEXT_DAY = 48


def _oracle(serve_world, hours):
    service = TipsyService(serve_world.scenario.wan, serve_world.config)
    for hour in range(hours):
        service.ingest_hour(hour, serve_world.hourly[hour])
    return service


@pytest.fixture(scope="module")
def oracle(serve_world):
    return _oracle(serve_world, HOURS_FED)


def _daemon(serve_world, workers, n_shards):
    return ServeDaemon(serve_world.scenario.wan, DaemonConfig(
        n_shards=n_shards, workers=workers,
        service=serve_world.config)).start()


def _feed(daemon, serve_world, hours):
    for hour in hours:
        daemon.ingest_hour(hour, serve_world.hourly[hour])


def _questions(serve_world):
    links = sorted(link.link_id for link in serve_world.scenario.wan.links)
    contexts = serve_world.contexts[:90]
    flows = [(context, float(20 + i)) for i, context in enumerate(contexts)]
    return contexts, flows, frozenset(links[:3])


def _answers(target, serve_world):
    contexts, flows, withdrawn = _questions(serve_world)
    return (target.predict_batch(contexts),
            target.what_if(flows, withdrawn))


def _refused(daemon, serve_world, match):
    contexts, flows, withdrawn = _questions(serve_world)
    with pytest.raises(ShardError, match=match):
        daemon.predict_batch(contexts)
    with pytest.raises(ShardError, match=match):
        daemon.what_if(flows, withdrawn)


@pytest.mark.parametrize("workers", WORKER_MODES)
def test_failed_op_leaves_no_reply_behind(serve_world, oracle, workers):
    """A read before any hour is the single service's error; a drain
    that fails on one shard still has every reply read, or the next
    conversation would read its predecessor's answer."""
    daemon = _daemon(serve_world, workers, n_shards=2)
    try:
        with pytest.raises(RuntimeError, match="no trained models"):
            daemon.predict_batch(serve_world.contexts[:40])
        _feed(daemon, serve_world, range(HOURS_FED))
        # handed to shard 0 behind the daemon's door, an older hour
        # fails on its ingest thread, and the next drain reports it
        daemon._handles[0].ingest(3, serve_world.hourly[3].columns)
        with pytest.raises(ShardError, match="shard 0 drain.*hour 3"):
            daemon.drain()
        status = daemon.status()
        assert [shard.shard_id for shard in status.shards] == [0, 1]
        assert all(shard.last_hour == HOURS_FED - 1
                   for shard in status.shards)
        assert _answers(daemon, serve_world) == _answers(oracle, serve_world)
    finally:
        daemon.shutdown(drain=False)


def test_failed_publication_fails_every_read_until_one_succeeds(
        serve_world, monkeypatch):
    """Shard 1 fails the publication of day 2: the feed that asked for it
    raises, every read then raises naming the day (the front still holds
    day 1's suite, which would be a stale answer), and the next hour fed
    asks again; once that succeeds the reads are day 2's."""
    daemon = _daemon(serve_world, "inline", n_shards=2)
    shard = daemon._handles[1]
    publish = shard._op_publish

    def fails_once():
        monkeypatch.setattr(shard, "_op_publish", publish)
        raise OSError("segment store unreachable")

    try:
        _feed(daemon, serve_world, range(NEXT_DAY))
        day_one = _answers(daemon, serve_world)
        assert day_one == _answers(_oracle(serve_world, NEXT_DAY),
                                   serve_world)
        monkeypatch.setattr(shard, "_op_publish", fails_once)
        with pytest.raises(ShardError, match="shard 1 publish.*unreachable"):
            daemon.ingest_hour(NEXT_DAY, serve_world.hourly[NEXT_DAY])
        for _ in range(2):
            _refused(daemon, serve_world, "day 2 has no published suite")
        assert daemon.status().last_hour == NEXT_DAY  # the feed is intact
        daemon.ingest_hour(NEXT_DAY + 1, serve_world.hourly[NEXT_DAY + 1])
        after = _answers(daemon, serve_world)
        assert after == _answers(_oracle(serve_world, NEXT_DAY + 2),
                                 serve_world)
        assert after != day_one  # otherwise the test is vacuous
    finally:
        daemon.shutdown(drain=False)


def test_dead_worker_fails_the_feed_and_not_the_reads(serve_world, oracle,
                                                      tmp_path):
    """A worker killed mid-day: feed, drain, status and checkpoint raise
    at once, naming it; reads go on answering the day's suite, which is
    still the single service's.  The next day's first hour cannot be
    published, and from then every read raises naming that day."""
    daemon = _daemon(serve_world, "process", n_shards=3)
    processes = [handle.process for handle in daemon._handles]
    want = _answers(oracle, serve_world)
    try:
        _feed(daemon, serve_world, range(HOURS_FED))
        daemon.drain()
        os.kill(processes[1].pid, signal.SIGKILL)
        processes[1].join(10)
        assert not processes[1].is_alive()

        assert _answers(daemon, serve_world) == want
        with pytest.raises(ShardError, match="shard 1 worker died"):
            daemon.ingest_hour(HOURS_FED, serve_world.hourly[HOURS_FED])
        with pytest.raises(ShardError, match="shard 1 worker died"):
            daemon.drain()
        with pytest.raises(ShardError, match="shard 1 worker died"):
            daemon.status()
        with pytest.raises(ShardError, match="shard 1 worker died"):
            daemon.checkpoint(tmp_path)
        assert _answers(daemon, serve_world) == want
        with pytest.raises(ShardError, match="shard 1 worker died"):
            daemon.ingest_hour(NEXT_DAY, serve_world.hourly[NEXT_DAY])
        _refused(daemon, serve_world, "day 2 has no published suite")
    finally:
        with pytest.raises(ShardError, match="shard 1"):
            daemon.shutdown(drain=False)
    assert not any(process.is_alive() for process in processes)


@pytest.mark.parametrize("workers", WORKER_MODES)
def test_shutdown_drops_the_front_suite(serve_world, workers):
    """What reads were answered from is let go at shutdown: a caller that
    keeps stopped daemons (a harness, a supervisor's history) holds no
    model suite and no memo through them."""
    daemon = _daemon(serve_world, workers, n_shards=2)
    _feed(daemon, serve_world, range(HOURS_FED))
    _answers(daemon, serve_world)
    front = daemon._front
    assert front.ready and front.memo_stats().entries > 0
    daemon.shutdown()
    assert daemon._front is not front
    assert not daemon._front.ready
    assert daemon._front.memo_stats().entries == 0
    with pytest.raises(RuntimeError, match="shut down"):
        daemon.predict_batch(serve_world.contexts[:1])


def test_resume_whose_publication_fails_raises_and_stops_its_shards(
        serve_world, tmp_path, monkeypatch):
    """``start`` on a checkpoint asks for one publication; if it fails,
    the resume raises naming the shard, and leaves no shard running."""
    daemon = _daemon(serve_world, "inline", n_shards=2)
    _feed(daemon, serve_world, range(HOURS_FED))
    daemon.checkpoint(tmp_path)
    daemon.shutdown()
    stopped = []
    stop = ShardServer._op_stop

    def failing_publish(server):
        raise OSError(f"shard {server.shard_id} lost its suite")

    def noted_stop(server, drain):
        stopped.append(server.shard_id)
        return stop(server, drain)

    monkeypatch.setattr(ShardServer, "_op_publish", failing_publish)
    monkeypatch.setattr(ShardServer, "_op_stop", noted_stop)
    with pytest.raises(ShardError, match="shard 0 publish.*lost its suite"):
        ServeDaemon.resume(tmp_path, serve_world.scenario.wan,
                           workers="inline")
    assert stopped == [0, 1]
