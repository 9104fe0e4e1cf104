"""The sharded daemon is bit-identical to the single-process service.

The ISSUE's acceptance criterion, checked in both worker modes (the
``trained_daemon`` fixture is parametrized over inline and process):
the same hourly stream into a 3-shard daemon and into one
:class:`TipsyService` must yield *exactly* equal ``predict_batch`` and
``what_if`` answers — not approximately, byte for byte.
"""

import pytest

from repro.serve import DaemonConfig, ServeDaemon, ShardError
from repro.serve.daemon import WORKER_MODES


class TestDaemonEquivalence:
    def test_predict_batch_bit_identical(self, serve_world,
                                         trained_daemon):
        contexts = serve_world.contexts[:400]
        assert (trained_daemon.predict_batch(contexts)
                == serve_world.reference.predict_batch(contexts))

    def test_predict_batch_with_unavailable_links(self, serve_world,
                                                  trained_daemon):
        contexts = serve_world.contexts[:200]
        links = sorted(
            link.link_id for link in serve_world.scenario.wan.links)
        unavailable = frozenset(links[:2])
        assert (trained_daemon.predict_batch(contexts, k=3,
                                             unavailable=unavailable)
                == serve_world.reference.predict_batch(
                    contexts, k=3, unavailable=unavailable))

    def test_what_if_bit_identical(self, serve_world, trained_daemon):
        flows = [(context, float(50 + 7 * i))
                 for i, context in enumerate(serve_world.contexts)]
        links = sorted(
            link.link_id for link in serve_world.scenario.wan.links)
        withdrawn = frozenset(links[:3])
        assert (trained_daemon.what_if(flows, withdrawn)
                == serve_world.reference.what_if(flows, withdrawn))

    def test_status_sees_every_shard_ready(self, trained_daemon):
        status = trained_daemon.status()
        assert status.n_shards == 3
        assert status.ready
        assert status.ingest_backlog == 0
        assert len(status.shards) == 3
        assert {s.shard_id for s in status.shards} == {0, 1, 2}


class TestDaemonBasics:
    def test_empty_batch_and_empty_what_if(self, serve_world):
        daemon = ServeDaemon(serve_world.scenario.wan, DaemonConfig(
            n_shards=2, workers="inline",
            service=serve_world.config)).start()
        try:
            assert daemon.predict_batch([]) == []
            assert daemon.what_if([], frozenset({1})) == {}
        finally:
            daemon.shutdown()

    def test_single_shard_matches_reference_too(self, serve_world):
        daemon = ServeDaemon(serve_world.scenario.wan, DaemonConfig(
            n_shards=1, workers="inline",
            service=serve_world.config)).start()
        try:
            for hour, records in enumerate(serve_world.hourly):
                daemon.ingest_hour(hour, records)
            daemon.drain()
            contexts = serve_world.contexts[:100]
            assert (daemon.predict_batch(contexts)
                    == serve_world.reference.predict_batch(contexts))
        finally:
            daemon.shutdown()

    def test_queries_after_shutdown_are_rejected(self, serve_world):
        daemon = ServeDaemon(serve_world.scenario.wan, DaemonConfig(
            n_shards=2, workers="inline",
            service=serve_world.config)).start()
        daemon.shutdown()
        with pytest.raises(RuntimeError):
            daemon.predict_batch(serve_world.contexts[:1])

    def test_worker_error_surfaces_as_shard_error(self, serve_world):
        for workers in WORKER_MODES:
            daemon = ServeDaemon(serve_world.scenario.wan, DaemonConfig(
                n_shards=2, workers=workers,
                service=serve_world.config)).start()
            try:
                daemon.ingest_hour(5, serve_world.hourly[5])
                # hours must be monotonic, and the daemon's door says so
                # itself; handed to a shard behind it, the ingest thread
                # records the failure and the next drain reports it
                daemon._handles[0].ingest(3, serve_world.hourly[3].columns)
                with pytest.raises(ShardError, match="hour 3"):
                    daemon.drain()
            finally:
                daemon.shutdown(drain=False)
