"""The daemon's failure rule (docs/operations.md): a failed op or a dead
worker raises ``ShardError`` naming the shard, and the next call is
answered correctly or raises — it never answers for another query."""

import os
import signal

import pytest

from repro.core.service import TipsyService
from repro.serve import DaemonConfig, ServeDaemon, ShardError
from repro.serve.daemon import WORKER_MODES
from repro.serve.sharding import split_indices

#: past the first day-boundary retrain, short of the second
HOURS_FED = 30


@pytest.fixture(scope="module")
def oracle(serve_world):
    service = TipsyService(serve_world.scenario.wan, serve_world.config)
    for hour in range(HOURS_FED):
        service.ingest_hour(hour, serve_world.hourly[hour])
    return service


def _daemon(serve_world, workers, n_shards):
    return ServeDaemon(serve_world.scenario.wan, DaemonConfig(
        n_shards=n_shards, workers=workers,
        service=serve_world.config)).start()


@pytest.mark.parametrize("workers", WORKER_MODES)
def test_failed_op_leaves_no_reply_behind(serve_world, oracle, workers):
    """Every shard fails the untrained query; all replies must be read,
    or each later conversation reads its predecessor's answer."""
    daemon = _daemon(serve_world, workers, n_shards=2)
    contexts = serve_world.contexts[:40]
    try:
        with pytest.raises(ShardError, match="no trained models"):
            daemon.predict_batch(contexts)
        for hour in range(HOURS_FED):
            daemon.ingest_hour(hour, serve_world.hourly[hour])
        daemon.drain()
        for first in range(0, 160, 40):
            batch = serve_world.contexts[first:first + 40]
            assert daemon.predict_batch(batch) == oracle.predict_batch(batch)
    finally:
        daemon.shutdown(drain=False)


def test_dead_worker_is_a_shard_error_everywhere(serve_world, oracle):
    daemon = _daemon(serve_world, "process", n_shards=3)
    processes = [handle.process for handle in daemon._handles]
    try:
        for hour in range(HOURS_FED):
            daemon.ingest_hour(hour, serve_world.hourly[hour])
        daemon.drain()
        os.kill(processes[1].pid, signal.SIGKILL)
        processes[1].join(10)
        assert not processes[1].is_alive()

        contexts = serve_world.contexts[:90]
        with pytest.raises(ShardError, match="shard 1 worker died"):
            daemon.ingest_hour(HOURS_FED, serve_world.hourly[HOURS_FED])
        with pytest.raises(ShardError, match="shard 1 worker died"):
            daemon.predict_batch(contexts)
        with pytest.raises(ShardError, match="shard 1 worker died"):
            daemon.status()
        # the survivors' replies to those calls were read: asked only
        # for keys they own, they still answer their own questions
        owned = split_indices(contexts, 3)
        alive = [contexts[i] for i in owned[0] + owned[2]]
        assert alive
        assert daemon.predict_batch(alive) == oracle.predict_batch(alive)
    finally:
        with pytest.raises(ShardError, match="shard 1"):
            daemon.shutdown(drain=False)
    assert not any(process.is_alive() for process in processes)


def test_dead_worker_under_a_warm_memo(serve_world, oracle):
    """A hit contacts no shard, so it outlives its worker until the next
    miss (or feed, status, checkpoint) notices the death; from then on
    the dead shard's keys raise and the survivors' are learnt again."""
    daemon = _daemon(serve_world, "process", n_shards=3)
    processes = [handle.process for handle in daemon._handles]
    contexts = serve_world.contexts[:90]
    owned = split_indices(contexts, 3)
    warm = [contexts[i] for i in owned[1][:-1]]
    cold = [contexts[owned[1][-1]]]
    alive = [contexts[i] for i in owned[0] + owned[2]]
    assert warm and cold[0] not in warm and alive
    try:
        for hour in range(HOURS_FED):
            daemon.ingest_hour(hour, serve_world.hourly[hour])
        daemon.drain()
        assert daemon.predict_batch(warm + alive) == oracle.predict_batch(
            warm + alive)
        os.kill(processes[1].pid, signal.SIGKILL)
        processes[1].join(10)
        assert not processes[1].is_alive()

        assert daemon.predict_batch(warm) == oracle.predict_batch(warm)
        with pytest.raises(ShardError, match="shard 1 worker died"):
            daemon.predict_batch(warm + cold)
        with pytest.raises(ShardError, match="shard 1 worker died"):
            daemon.predict_batch(warm)
        for _ in range(2):
            assert daemon.predict_batch(alive) == oracle.predict_batch(alive)
        assert daemon._memo.stats().entries == len(set(alive))
    finally:
        with pytest.raises(ShardError, match="shard 1"):
            daemon.shutdown(drain=False)
    assert not any(process.is_alive() for process in processes)
