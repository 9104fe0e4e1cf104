"""A shard server's service: equivalence, swap accounting, and the
old-or-new invariant — with a retrain parked mid-build, and under
concurrent readers while retrains are in flight.

The invariant is the service's (its atomic ``PublishedSuite``), so the
races run on :class:`TipsyService` itself; what the shard server adds —
its ingest thread, swap count and health — runs on an inline
:class:`ShardServer`, and the daemon's front, which installs the shards'
merged publications, is raced last."""

import contextlib
import dataclasses
import sys
import threading

import pytest

from repro.core.historical import HistoricalModel
from repro.core.service import TipsyService
from repro.serve import DaemonConfig, ServeDaemon
from repro.serve.daemon import WORKER_MODES
from repro.serve.worker import ShardServer

from .conftest import HOURS


@contextlib.contextmanager
def _server(serve_world):
    server = ShardServer(0, serve_world.scenario.wan, serve_world.config)
    try:
        yield server
    finally:
        assert server.handle("stop", False) == ("ok", None)


def _fed(server, serve_world, hours):
    for hour in hours:
        server.ingest(hour, serve_world.hourly[hour])
    assert server.handle("drain") == ("ok", None)


def _health(server):
    status, (health, _delta) = server.handle("status")
    assert status == "ok"
    return health


class TestHotSwapEquivalence:
    def test_matches_single_service_after_full_stream(self, serve_world):
        """What a shard publishes, installed in another service, answers
        as the service fed the stream does."""
        contexts = serve_world.contexts[:300]
        with _server(serve_world) as server:
            for hour in range(HOURS):
                server.ingest(hour, serve_world.hourly[hour])
            status, (days, tables) = server.handle("publish")
        assert status == "ok"
        assert days == serve_world.reference.trained_days
        front = TipsyService(serve_world.scenario.wan, serve_world.config)
        front.install(tables, days)
        assert (front.predict_batch(contexts)
                == serve_world.reference.predict_batch(contexts))

    def test_swap_per_published_suite(self, serve_world):
        """One swap per retrain the stream crossed, none per hour."""
        with _server(serve_world) as server:
            _fed(server, serve_world, range(30))
            health = _health(server)
            assert health.swap_count == 2  # hour 0 (empty suite), hour 24
            assert health.last_hour == 29
            _fed(server, serve_world, range(30, 49))
            health = _health(server)
            assert health.swap_count == 3 == health.retrain_count

    def test_health_reflects_training_state(self, serve_world):
        with _server(serve_world) as server:
            health = _health(server)
            assert not health.ready and health.trained_days == 0
            _fed(server, serve_world, range(25))
            health = _health(server)
        assert health.ready
        assert health.latest_trained_day == 0
        assert health.staleness_hours == 1  # hour 24 awaits day 1's retrain

    def test_restored_server_counts_only_its_own_swaps(self, serve_world,
                                                       tmp_path):
        with _server(serve_world) as server:
            _fed(server, serve_world, range(30))
            assert server.handle("checkpoint", str(tmp_path)) == ("ok", 29)
        restored = ShardServer(0, serve_world.scenario.wan,
                               serve_world.config, str(tmp_path))
        try:
            health = _health(restored)
            # the snapshot's two retrains are the service's, not its swaps
            assert (health.swap_count, health.retrain_count) == (0, 2)
            _fed(restored, serve_world, range(30, 49))
            health = _health(restored)
            assert (health.swap_count, health.retrain_count) == (1, 3)
        finally:
            assert restored.handle("stop", True) == ("ok", None)


#: hour 72 starts day 3, so its retrain brings day 2 into the models
BOUNDARY = 72


def _service_before(serve_world, boundary):
    """A service fed up to ``boundary``, a batch, and the batch's answers
    just before and just after the hour ``boundary`` is ingested."""
    wan = serve_world.scenario.wan
    before = TipsyService(wan, serve_world.config)
    after = TipsyService(wan, serve_world.config)
    service = TipsyService(wan, serve_world.config)
    for hour in range(boundary):
        before.ingest_hour(hour, serve_world.hourly[hour])
        after.ingest_hour(hour, serve_world.hourly[hour])
        service.ingest_hour(hour, serve_world.hourly[hour])
    after.ingest_hour(boundary, serve_world.hourly[boundary])
    batch = serve_world.contexts[:40]
    old_answer = before.predict_batch(batch)
    new_answer = after.predict_batch(batch)
    assert old_answer != new_answer  # otherwise the tests are vacuous
    return service, batch, old_answer, new_answer


class TestOldOrNewInvariant:
    def test_parked_retrain_serves_old_then_new(self, serve_world,
                                                monkeypatch):
        """A retrain stopped half-way through its build changes nothing
        a query can see, and delays no query; its end changes everything.

        The retrain is parked on an event right after the first of its
        three grain models has been built, so the next suite is provably
        half-built while the service is asked.
        """
        service, batch, old_answer, new_answer = _service_before(
            serve_world, BOUNDARY)

        parked, release = threading.Event(), threading.Event()
        build_model = HistoricalModel.from_arrays

        def park_after_first_model(arrays, feature_set):
            model = build_model(arrays, feature_set)
            if not parked.is_set():
                parked.set()
                assert release.wait(30)
            return model

        monkeypatch.setattr(HistoricalModel, "from_arrays",
                            park_after_first_model)
        swaps = service.retrain_count
        writer = threading.Thread(
            target=service.ingest_hour,
            args=(BOUNDARY, serve_world.hourly[BOUNDARY]))
        writer.start()
        try:
            assert parked.wait(30)
            answers = []
            reader = threading.Thread(
                target=lambda: answers.append(service.predict_batch(batch)))
            reader.start()
            reader.join(10)
            assert not reader.is_alive(), "a query waited on the retrain"
            assert answers == [old_answer]  # memo-cold: read off the models
            assert service.retrain_count == swaps
            assert max(service.trained_days) == 1
        finally:
            release.set()
            writer.join(30)
        assert not writer.is_alive()
        assert service.predict_batch(batch) == new_answer
        assert service.retrain_count == swaps + 1
        assert max(service.trained_days) == 2

    def test_unlocked_readers_never_mix_suites_within_a_call(
            self, serve_world):
        """Readers take no lock: several of them race one
        publication under a short switch interval, on questions of three
        shapes whose answers together overflow the memo — so every call
        finds part of its answer remembered and stores the rest.  Each
        call's answers are all the old suite's or all the new one's, and
        a reader that has seen the new suite is never again answered by
        the retired one (an old answer stored in the new memo would be)."""
        wan = serve_world.scenario.wan
        service = TipsyService(wan, dataclasses.replace(
            serve_world.config, memo_size=60))
        oracle = TipsyService(wan, serve_world.config)
        for hour in range(BOUNDARY):
            service.ingest_hour(hour, serve_world.hourly[hour])
            oracle.ingest_hour(hour, serve_world.hourly[hour])
        batch = serve_world.contexts[:40]
        links = sorted(link.link_id for link in wan.links)[:2]
        questions = [(batch[:25], None, frozenset()),
                     (batch, None, frozenset()),
                     (batch[10:], 2, frozenset(links))]
        old = [oracle.predict_batch(*q) for q in questions]
        oracle.ingest_hour(BOUNDARY, serve_world.hourly[BOUNDARY])
        new = [oracle.predict_batch(*q) for q in questions]
        assert all(o != n for o, n in zip(old, new))

        n_readers = 4
        observed = [[] for _ in range(n_readers)]
        failures = []
        warmed = threading.Barrier(n_readers + 1)
        stop = threading.Event()

        def read_loop(reader):
            def ask(which):
                observed[reader].append(
                    (which, service.predict_batch(*questions[which])))

            try:
                for which in range(len(questions)):
                    ask(which)  # the old suite's
                warmed.wait(30)
                turn = reader
                while not stop.is_set():
                    ask(turn % len(questions))
                    turn += 1
                for which in range(len(questions)):
                    ask(which)  # after the publication
            except Exception as error:  # pragma: no cover - on failure
                failures.append(error)

        readers = [threading.Thread(target=read_loop, args=(reader,))
                   for reader in range(n_readers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            warmed.wait(30)
            service.ingest_hour(BOUNDARY, serve_world.hourly[BOUNDARY])
        finally:
            stop.set()
            for reader in readers:
                reader.join(30)
            sys.setswitchinterval(interval)
        assert not failures
        assert not any(reader.is_alive() for reader in readers)
        for answers in observed:
            suites = []
            for which, answer in answers:
                assert answer in (old[which], new[which])
                suites.append(answer == new[which])
            assert suites == sorted(suites)  # old ... old, new ... new
            assert not suites[0] and suites[-1]

    def test_concurrent_reader_never_sees_half_retrained_state(
            self, serve_world):
        """Queries racing a day-boundary retrain see old-or-new only.

        Hour 72 carries an eviction + incremental retrain (3-day window,
        day 3 starting).  A reader hammers the service throughout that
        ingest; every answer must equal either the pre-ingest state's or
        the post-ingest state's — anything else is a torn read of a
        half-retrained model.
        """
        service, batch, old_answer, new_answer = _service_before(
            serve_world, BOUNDARY)

        observed = []
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                observed.append(service.predict_batch(batch))

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            service.ingest_hour(BOUNDARY, serve_world.hourly[BOUNDARY])
        finally:
            stop.set()
            reader.join()

        assert observed
        for answer in observed:
            assert answer in (old_answer, new_answer)
        # quiescent state is the new one
        assert service.predict_batch(batch) == new_answer

    def test_many_readers_on_a_tiny_memo_across_retrains(self, serve_world):
        """More readers than cores, a memo that evicts on every batch, a
        short switch interval: every answer is still some published
        suite's, and the memo keeps its bound."""
        config = dataclasses.replace(serve_world.config, memo_size=30)
        wan = serve_world.scenario.wan
        service = TipsyService(wan, config)
        oracle = TipsyService(wan, config)
        batch = serve_world.contexts[:40]
        warm = 25
        valid = []
        for hour in range(HOURS):
            oracle.ingest_hour(hour, serve_world.hourly[hour])
            if hour < warm:
                service.ingest_hour(hour, serve_world.hourly[hour])
            if hour >= 24 and hour % 24 == 0:  # a suite was published
                valid.append(oracle.predict_batch(batch))
        observed, failures = [], []
        stop = threading.Event()

        def read_loop():
            try:
                while not stop.is_set():
                    observed.append(service.predict_batch(batch))
            except Exception as error:  # pragma: no cover - on failure
                failures.append(error)

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            for hour in range(warm, HOURS):
                service.ingest_hour(hour, serve_world.hourly[hour])
        finally:
            stop.set()
            for reader in readers:
                reader.join(30)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert not failures
        assert observed and all(answer in valid for answer in observed)
        assert service.predict_batch(batch) == valid[-1]
        assert service.cache_stats()["memo_entries"] <= 30

    def test_full_stream_with_concurrent_reader_ends_identical(
            self, serve_world):
        """Old-or-new holds across every hour, not just one boundary."""
        service = TipsyService(serve_world.scenario.wan, serve_world.config)
        warm = 25  # past the first retrain, so the service is serving
        for hour in range(warm):
            service.ingest_hour(hour, serve_world.hourly[hour])
        batch = serve_world.contexts[:20]
        failures = []
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                try:
                    service.predict_batch(batch)
                except Exception as error:  # pragma: no cover - on failure
                    failures.append(error)
                    return

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            for hour in range(warm, HOURS):
                service.ingest_hour(hour, serve_world.hourly[hour])
        finally:
            stop.set()
            reader.join()
        assert not failures
        assert (service.predict_batch(batch)
                == serve_world.reference.predict_batch(batch))


class TestOldOrNewAtTheFront:
    @pytest.mark.parametrize("workers", WORKER_MODES)
    def test_readers_racing_publications_see_one_suite_per_call(
            self, serve_world, workers):
        """Readers hammer a 2-shard daemon, under a short switch
        interval, while the feed crosses three day boundaries: each call
        is answered by exactly one publication (never one shard's new
        day beside the other's old one), and no reader ever goes back to
        an older publication."""
        wan = serve_world.scenario.wan
        oracle = TipsyService(wan, serve_world.config)
        batch = serve_world.contexts[:40]
        warm = 25
        valid = []
        for hour in range(HOURS):
            oracle.ingest_hour(hour, serve_world.hourly[hour])
            if hour >= 24 and hour % 24 == 0:  # a suite was published
                valid.append(oracle.predict_batch(batch))
        assert len({repr(answer) for answer in valid}) == len(valid)
        daemon = ServeDaemon(wan, DaemonConfig(
            n_shards=2, workers=workers, service=serve_world.config)).start()
        observed = [[] for _ in range(3)]
        failures = []
        stop = threading.Event()

        def read_loop(seen):
            try:
                while not stop.is_set():
                    seen.append(valid.index(daemon.predict_batch(batch)))
            except Exception as error:  # pragma: no cover - on failure
                failures.append(error)

        readers = [threading.Thread(target=read_loop, args=(seen,))
                   for seen in observed]
        interval = sys.getswitchinterval()
        try:
            for hour in range(warm):
                daemon.ingest_hour(hour, serve_world.hourly[hour])
            sys.setswitchinterval(1e-5)
            for reader in readers:
                reader.start()
            for hour in range(warm, HOURS):
                daemon.ingest_hour(hour, serve_world.hourly[hour])
        finally:
            stop.set()
            for reader in readers:
                reader.join(30)
            sys.setswitchinterval(interval)
            final = daemon.predict_batch(batch)
            daemon.shutdown(drain=False)
        assert not failures and not any(r.is_alive() for r in readers)
        for seen in observed:
            assert seen and seen == sorted(seen)
        assert final == valid[-1]
