"""HotSwapShard: equivalence, swap accounting, and the old-or-new
invariant — with a retrain parked mid-build, and under a concurrent
reader while retrains are in flight."""

import dataclasses
import sys
import threading

from repro.core.historical import HistoricalModel
from repro.core.service import TipsyService
from repro.serve.shard import HotSwapShard

from .conftest import HOURS


class TestHotSwapEquivalence:
    def test_matches_single_service_after_full_stream(self, serve_world):
        shard = HotSwapShard(0, serve_world.scenario.wan,
                             serve_world.config)
        for hour, records in enumerate(serve_world.hourly):
            shard.ingest_hour(hour, records)
        contexts = serve_world.contexts[:300]
        assert (shard.predict_batch(contexts)
                == serve_world.reference.predict_batch(contexts))

    def test_swap_per_published_suite(self, serve_world):
        """One swap per retrain the stream crossed, none per hour."""
        shard = HotSwapShard(0, serve_world.scenario.wan,
                             serve_world.config)
        for hour in range(30):
            shard.ingest_hour(hour, serve_world.hourly[hour])
        assert shard.swap_count == 2  # hour 0 (empty suite) and hour 24
        assert shard.last_hour == 29
        for hour in range(30, 49):
            shard.ingest_hour(hour, serve_world.hourly[hour])
        assert shard.swap_count == 3 == shard.health().retrain_count

    def test_health_reflects_training_state(self, serve_world):
        shard = HotSwapShard(0, serve_world.scenario.wan,
                             serve_world.config)
        health = shard.health()
        assert not health.ready and health.trained_days == 0
        for hour in range(25):
            shard.ingest_hour(hour, serve_world.hourly[hour])
        health = shard.health()
        assert health.ready
        assert health.latest_trained_day == 0
        assert health.staleness_hours == 1  # hour 24 awaits day 1's retrain


#: hour 72 starts day 3, so its retrain brings day 2 into the models
BOUNDARY = 72


def _shard_before(serve_world, boundary):
    """A shard fed up to ``boundary``, a batch, and the batch's answers
    just before and just after the hour ``boundary`` is ingested."""
    wan = serve_world.scenario.wan
    before = TipsyService(wan, serve_world.config)
    after = TipsyService(wan, serve_world.config)
    shard = HotSwapShard(0, wan, serve_world.config)
    for hour in range(boundary):
        before.ingest_hour(hour, serve_world.hourly[hour])
        after.ingest_hour(hour, serve_world.hourly[hour])
        shard.ingest_hour(hour, serve_world.hourly[hour])
    after.ingest_hour(boundary, serve_world.hourly[boundary])
    batch = serve_world.contexts[:40]
    old_answer = before.predict_batch(batch)
    new_answer = after.predict_batch(batch)
    assert old_answer != new_answer  # otherwise the tests are vacuous
    return shard, batch, old_answer, new_answer


class TestOldOrNewInvariant:
    def test_parked_retrain_serves_old_then_new(self, serve_world,
                                                monkeypatch):
        """A retrain stopped half-way through its build changes nothing
        a query can see, and delays no query; its end changes everything.

        The retrain is parked on an event right after the first of its
        three grain models has been built, so the next suite is provably
        half-built while the shard is asked.
        """
        shard, batch, old_answer, new_answer = _shard_before(
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
        swaps = shard.swap_count
        writer = threading.Thread(
            target=shard.ingest_hour,
            args=(BOUNDARY, serve_world.hourly[BOUNDARY]))
        writer.start()
        try:
            assert parked.wait(30)
            answers = []
            reader = threading.Thread(
                target=lambda: answers.append(shard.predict_batch(batch)))
            reader.start()
            reader.join(10)
            assert not reader.is_alive(), "a query waited on the retrain"
            assert answers == [old_answer]  # memo-cold: read off the models
            assert shard.swap_count == swaps
            assert shard.health().latest_trained_day == 1
        finally:
            release.set()
            writer.join(30)
        assert not writer.is_alive()
        assert shard.predict_batch(batch) == new_answer
        assert shard.swap_count == swaps + 1
        assert shard.health().latest_trained_day == 2

    def test_unlocked_readers_never_mix_suites_within_a_call(
            self, serve_world):
        """Readers take no shard lock: several of them race one
        publication under a short switch interval, on questions of three
        shapes whose answers together overflow the memo — so every call
        finds part of its answer remembered and stores the rest.  Each
        call's answers are all the old suite's or all the new one's, and
        a reader that has seen the new suite is never again answered by
        the retired one (an old answer stored in the new memo would be)."""
        wan = serve_world.scenario.wan
        shard = HotSwapShard(0, wan, dataclasses.replace(
            serve_world.config, memo_size=60))
        oracle = TipsyService(wan, serve_world.config)
        for hour in range(BOUNDARY):
            shard.ingest_hour(hour, serve_world.hourly[hour])
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
                    (which, shard.predict_batch(*questions[which])))

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
            shard.ingest_hour(BOUNDARY, serve_world.hourly[BOUNDARY])
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
        day 3 starting).  A reader hammers the shard throughout that
        ingest; every answer must equal either the pre-ingest state's or
        the post-ingest state's — anything else is a torn read of a
        half-retrained model.
        """
        shard, batch, old_answer, new_answer = _shard_before(
            serve_world, BOUNDARY)

        observed = []
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                observed.append(shard.predict_batch(batch))

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            shard.ingest_hour(BOUNDARY, serve_world.hourly[BOUNDARY])
        finally:
            stop.set()
            reader.join()

        assert observed
        for answer in observed:
            assert answer in (old_answer, new_answer)
        # quiescent state is the new one
        assert shard.predict_batch(batch) == new_answer

    def test_many_readers_on_a_tiny_memo_across_retrains(self, serve_world):
        """More readers than cores, a memo that evicts on every batch, a
        short switch interval: every answer is still some published
        suite's, and the memo keeps its bound."""
        config = dataclasses.replace(serve_world.config, memo_size=30)
        wan = serve_world.scenario.wan
        shard = HotSwapShard(0, wan, config)
        oracle = TipsyService(wan, config)
        batch = serve_world.contexts[:40]
        warm = 25
        valid = []
        for hour in range(HOURS):
            oracle.ingest_hour(hour, serve_world.hourly[hour])
            if hour < warm:
                shard.ingest_hour(hour, serve_world.hourly[hour])
            if hour >= 24 and hour % 24 == 0:  # a suite was published
                valid.append(oracle.predict_batch(batch))
        observed, failures = [], []
        stop = threading.Event()

        def read_loop():
            try:
                while not stop.is_set():
                    observed.append(shard.predict_batch(batch))
            except Exception as error:  # pragma: no cover - on failure
                failures.append(error)

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            for hour in range(warm, HOURS):
                shard.ingest_hour(hour, serve_world.hourly[hour])
        finally:
            stop.set()
            for reader in readers:
                reader.join(30)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert not failures
        assert observed and all(answer in valid for answer in observed)
        assert shard.predict_batch(batch) == valid[-1]
        assert shard.health().memo_entries <= 30

    def test_full_stream_with_concurrent_reader_ends_identical(
            self, serve_world):
        """Old-or-new holds across every hour, not just one boundary."""
        shard = HotSwapShard(0, serve_world.scenario.wan,
                             serve_world.config)
        warm = 25  # past the first retrain, so the shard is serving
        for hour in range(warm):
            shard.ingest_hour(hour, serve_world.hourly[hour])
        batch = serve_world.contexts[:20]
        failures = []
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                try:
                    shard.predict_batch(batch)
                except Exception as error:  # pragma: no cover - on failure
                    failures.append(error)
                    return

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            for hour in range(warm, HOURS):
                shard.ingest_hour(hour, serve_world.hourly[hour])
        finally:
            stop.set()
            reader.join()
        assert not failures
        assert (shard.predict_batch(batch)
                == serve_world.reference.predict_batch(batch))
