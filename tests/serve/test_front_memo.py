"""The daemon's front memo: a repeated question is answered without a
hop, and what it answers is bit-identical to asking the shards now.

An answer is kept only under the publication that gave it (the reply's
day tag equals the day the query read when it began) and the memo is
replaced before any shard hears of a new day — so these tests ask
everything several times, across day boundaries, inside the lag window
in which a shard still serves yesterday's suite, across a feed that
crosses a day mid-query, across a resume, and under a bound smaller
than one batch, always against the single-process oracle.
"""

import dataclasses
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.historical import HistoricalModel
from repro.core.service import TipsyService
from repro.obs import runtime as obs
from repro.obs.export import render_prometheus
from repro.pipeline.records import FlowContext
from repro.serve import DaemonConfig, ServeDaemon
from repro.serve.daemon import WORKER_MODES
from repro.serve.sharding import shard_of

from .conftest import HOURS

#: a source no hour of the stream carries: every model's answer is empty
GHOST = FlowContext(999_983, 1, 1, 0, 0)


def _daemon(serve_world, workers, n_shards=2, **service):
    return ServeDaemon(serve_world.scenario.wan, DaemonConfig(
        n_shards=n_shards, workers=workers,
        service=dataclasses.replace(serve_world.config, **service))).start()


def _oracle(serve_world, hours=0):
    service = TipsyService(serve_world.scenario.wan, serve_world.config)
    for hour in range(hours):
        service.ingest_hour(hour, serve_world.hourly[hour])
    return service


def _feed(serve_world, first, last, *targets):
    for hour in range(first, last):
        for target in targets:
            target.ingest_hour(hour, serve_world.hourly[hour])


def _questions(serve_world):
    """(predict questions, what_if questions): plain and constrained,
    overlapping batches, duplicates inside a batch, and a context no
    model knows."""
    contexts = serve_world.contexts
    links = sorted(link.link_id for link in serve_world.scenario.wan.links)
    predicts = [
        (contexts[:60] + [GHOST], None, frozenset()),
        (contexts[30:90] + contexts[30:40], 2, frozenset()),
        ([GHOST, GHOST], None, frozenset()),
        (contexts[:50] + [GHOST], 3, frozenset(links[:2])),
    ]
    flows = [(context, float(50 + 7 * i))
             for i, context in enumerate(contexts[:300] + [GHOST])]
    what_ifs = [(flows, frozenset(links[:3])), (flows[:80], frozenset())]
    return predicts, what_ifs


def _ask_all(target, predicts, what_ifs):
    return ([target.predict_batch(batch, k, unavailable)
             for batch, k, unavailable in predicts]
            + [target.what_if(flows, withdrawn)
               for flows, withdrawn in what_ifs])


@pytest.mark.parametrize("workers", WORKER_MODES)
def test_repeated_questions_equal_the_oracle_across_boundaries(
        serve_world, workers):
    daemon = _daemon(serve_world, workers)
    oracle = _oracle(serve_world)
    predicts, what_ifs = _questions(serve_world)
    try:
        fed = 0
        for upto in (40, 49, 73):  # day 1; past hour 48; past hour 72
            _feed(serve_world, fed, upto, daemon, oracle)
            fed = upto
            daemon.drain()
            want = _ask_all(oracle, predicts, what_ifs)
            assert want[2] == [[], []]  # an empty answer is an answer
            assert _ask_all(daemon, predicts, what_ifs) == want
            learnt = daemon.status().front
            for repeat in (1, 2):
                assert _ask_all(daemon, predicts, what_ifs) == want
                front = daemon.status().front
                # every repeat was answered here: no context missed, no
                # query hopped, nothing new to hold
                assert front.misses == learnt.misses
                assert front.entries == learnt.entries > 0
                assert front.hop_free == learnt.hop_free + repeat * (
                    len(predicts) + len(what_ifs))
            assert front.hits > learnt.hits
    finally:
        daemon.shutdown(drain=False)


#: hour 72 starts day 3, so its retrain brings day 2 into the models
BOUNDARY = 72


def test_lagging_shard_is_asked_again_and_never_cached(serve_world,
                                                       monkeypatch):
    """Shard 1's rebuild is parked half-way (as in ``test_hotswap``):
    the daemon's day has moved on, shard 0 has published the new suite,
    shard 1 still serves — correctly — the old one.  Its answers must
    come back old every time and must not be kept, or they would
    outlive the suite that gave them."""
    daemon = _daemon(serve_world, "inline")
    before = _oracle(serve_world, BOUNDARY)
    after = _oracle(serve_world, BOUNDARY + 1)
    batch = serve_world.contexts[:40]
    owners = [shard_of(context.src_asn, 2) for context in batch]
    old, new = before.predict_batch(batch), after.predict_batch(batch)
    mixed = [new[i] if owner == 0 else old[i]
             for i, owner in enumerate(owners)]
    assert mixed != old and mixed != new  # otherwise the test is vacuous
    lagging = len({c for c, owner in zip(batch, owners) if owner == 1})

    parked, release = threading.Event(), threading.Event()
    build_model = HistoricalModel.from_arrays

    def park_shard_1(arrays, feature_set):
        model = build_model(arrays, feature_set)
        if (threading.current_thread().name == "serve-ingest-1"
                and not parked.is_set()):
            parked.set()
            assert release.wait(30)
        return model

    try:
        _feed(serve_world, 0, BOUNDARY, daemon)
        daemon.drain()
        assert daemon.predict_batch(batch) == old
        assert daemon.status().front.entries == len(set(batch))
        monkeypatch.setattr(HistoricalModel, "from_arrays", park_shard_1)
        daemon.ingest_hour(BOUNDARY, serve_world.hourly[BOUNDARY])
        assert parked.wait(30)
        daemon._handles[0]._queue.join()  # shard 0 has published day 3
        assert daemon.status().front.entries == 0  # retired with day 2
        try:
            for asked in (1, 2, 3):
                misses = daemon.status().front.misses
                assert daemon.predict_batch(batch) == mixed
                front = daemon.status().front
                # shard 0's new answers were kept at once; shard 1's
                # old ones never are, and it is asked every time
                assert front.entries == len(set(batch)) - lagging
                assert front.misses - misses == (
                    len(batch) if asked == 1
                    else sum(owner == 1 for owner in owners))
        finally:
            release.set()
        daemon.drain()
        assert daemon.predict_batch(batch) == new
        hop_free = daemon.status().front.hop_free
        assert daemon.predict_batch(batch) == new
        assert daemon.status().front.hop_free == hop_free + 1
    finally:
        release.set()
        daemon.shutdown(drain=False)


def test_reply_that_lost_the_race_with_a_crossing_feed_is_not_found(
        serve_world):
    """The day moves to D + 1 between a query's scatter and its reply:
    the reply, rightly tagged D, may only land in the memo the query
    read when it began — which no later query reads."""
    daemon = _daemon(serve_world, "inline")
    batch = serve_world.contexts[:40]
    old = _oracle(serve_world, BOUNDARY).predict_batch(batch)
    new = _oracle(serve_world, BOUNDARY + 1).predict_batch(batch)
    assert old != new
    handle = daemon._handles[0]
    finish, ingest = handle.finish, handle.ingest
    day_when_first_shard_was_sent = []

    def finish_after_the_day_moved():
        handle.finish = finish
        daemon.ingest_hour(BOUNDARY, serve_world.hourly[BOUNDARY])
        return finish()  # answered before the feed: suite D's reply

    def ingest_noting_the_day(hour, columns):
        day_when_first_shard_was_sent.append(daemon._memo.day)
        ingest(hour, columns)

    try:
        _feed(serve_world, 0, BOUNDARY, daemon)
        daemon.drain()
        handle.finish = finish_after_the_day_moved
        handle.ingest = ingest_noting_the_day
        assert daemon.predict_batch(batch) == old
        assert day_when_first_shard_was_sent == [BOUNDARY // 24]
        assert daemon.last_hour == BOUNDARY
        assert daemon.status().front.entries == 0
        daemon.drain()
        for _ in range(2):
            assert daemon.predict_batch(batch) == new
    finally:
        daemon.shutdown(drain=False)


@pytest.mark.parametrize("workers", WORKER_MODES)
def test_warm_query_waits_for_no_daemon_lock(serve_world, workers):
    """A checkpoint holds both daemon locks from drain to manifest; a
    fully warm query still returns, a query with one miss waits."""
    daemon = _daemon(serve_world, workers)
    oracle = _oracle(serve_world, 30)
    warm = serve_world.contexts[:40]
    cold = [warm[-1], next(context for context in serve_world.contexts
                           if context not in warm)]
    answers = []

    def ask(batch):
        thread = threading.Thread(
            target=lambda: answers.append(daemon.predict_batch(batch)))
        thread.start()
        return thread

    try:
        _feed(serve_world, 0, 30, daemon)
        daemon.drain()
        daemon.predict_batch(warm)
        with daemon._feed_lock, daemon._query_lock:
            ask(warm).join(30)
            assert answers == [oracle.predict_batch(warm)]
            waiting = ask(cold)
            waiting.join(0.2)
            assert waiting.is_alive() and len(answers) == 1
        waiting.join(30)
        assert answers[1] == oracle.predict_batch(cold)
    finally:
        daemon.shutdown(drain=False)


@pytest.mark.parametrize("workers", WORKER_MODES)
def test_resumed_daemon_caches_from_its_first_reply(serve_world, workers,
                                                    tmp_path):
    oracle = _oracle(serve_world, 60)
    batch = serve_world.contexts[:80]
    daemon = _daemon(serve_world, workers)
    try:
        _feed(serve_world, 0, 60, daemon)
        daemon.checkpoint(tmp_path)
    finally:
        daemon.shutdown()
    resumed = ServeDaemon.resume(tmp_path, serve_world.scenario.wan,
                                 workers=workers)
    try:
        for asked in range(3):
            assert resumed.predict_batch(batch) == oracle.predict_batch(batch)
            assert resumed.status().front.hop_free == asked
        _feed(serve_world, 60, BOUNDARY + 1, resumed, oracle)
        resumed.drain()
        for _ in range(2):
            assert resumed.predict_batch(batch) == oracle.predict_batch(batch)
    finally:
        resumed.shutdown(drain=False)


@pytest.mark.parametrize("workers", WORKER_MODES)
@pytest.mark.parametrize("memo_size", [0, 7])
def test_bound_smaller_than_a_batch_still_answers_exactly(
        serve_world, workers, memo_size):
    daemon = _daemon(serve_world, workers, memo_size=memo_size)
    oracle = _oracle(serve_world, 30)
    predicts, what_ifs = _questions(serve_world)
    small = list(dict.fromkeys(serve_world.contexts))[:5]
    try:
        _feed(serve_world, 0, 30, daemon)
        daemon.drain()
        want = _ask_all(oracle, predicts, what_ifs)
        for _ in range(2):
            for question, expected in zip(predicts, want):
                assert daemon.predict_batch(*question) == expected
                assert daemon.status().front.entries <= memo_size
            for question, expected in zip(what_ifs, want[len(predicts):]):
                assert daemon.what_if(*question) == expected
                assert daemon.status().front.entries <= memo_size
        for asked in (1, 2):
            assert daemon.predict_batch(small) == oracle.predict_batch(small)
        front = daemon.status().front
        if memo_size:  # a question that fits is kept, and found again
            assert front.entries == 5 and front.hop_free == 1
        else:          # no front memo at all
            assert front.entries == front.hits == front.hop_free == 0
    finally:
        daemon.shutdown(drain=False)


def test_status_line_and_exported_gauges_carry_the_memo(serve_world):
    obs.enable(fresh=True)
    daemon = _daemon(serve_world, "inline")
    batch = list(dict.fromkeys(serve_world.contexts))[:30]
    try:
        _feed(serve_world, 0, 30, daemon)
        daemon.drain()
        for _ in range(3):
            daemon.predict_batch(batch + batch[:5])
        status = daemon.status()
        assert status.front == (30, 70, 35, 2)
        assert status.format_text().splitlines()[0].endswith(
            "front memo=30 (70 hits, 35 misses, 2 queries without a hop)")
        snapshot = obs.snapshot()
        assert {name: value for name, value in snapshot.gauges.items()
                if name.startswith("serve.front.")} == {
            "serve.front.entries": 30.0, "serve.front.hits": 70.0,
            "serve.front.misses": 35.0, "serve.front.hop_free": 2.0}
        assert "repro_serve_front_hop_free 2" in render_prometheus(snapshot)
    finally:
        daemon.shutdown(drain=False)
    obs.disable()
    obs.reset()
    daemon = _daemon(serve_world, "inline")
    try:
        daemon.status()
        assert obs.snapshot().gauges == {}  # nothing when disabled
    finally:
        daemon.shutdown(drain=False)


actions = st.lists(st.one_of(
    st.tuples(st.just("feed"), st.sampled_from([1, 1, 2, 5, 11, 24, 30])),
    st.tuples(st.just("ask"), st.integers(0, 5)),
    st.tuples(st.just("stale"), st.just(0)),
    st.tuples(st.just("restart"), st.just(0)),
), min_size=4, max_size=14)


def test_any_interleaving_of_feed_query_and_restart_equals_the_oracle(
        serve_world):
    predicts, what_ifs = _questions(serve_world)

    @settings(max_examples=12, deadline=None)
    @given(actions=actions)
    def run(actions):
        oracle = _oracle(serve_world, 1)
        daemon = _daemon(serve_world, "inline")
        daemon.ingest_hour(0, serve_world.hourly[0])
        daemon.drain()
        fed = 1
        try:
            for action, argument in actions:
                if action == "feed":
                    upto = min(fed + argument, HOURS)
                    _feed(serve_world, fed, upto, daemon, oracle)
                    fed = upto
                    daemon.drain()
                elif action == "stale" and fed > 1:
                    with pytest.raises(ValueError, match="time order"):
                        daemon.ingest_hour(fed - 2,
                                           serve_world.hourly[fed - 2])
                elif action == "restart":
                    with tempfile.TemporaryDirectory() as directory:
                        daemon.checkpoint(directory)
                        daemon.shutdown()
                        daemon = ServeDaemon.resume(
                            directory, serve_world.scenario.wan,
                            workers="inline")
                elif action == "ask":
                    for _ in range(3):
                        if argument < len(predicts):
                            question = predicts[argument]
                            assert (daemon.predict_batch(*question)
                                    == oracle.predict_batch(*question))
                        else:
                            question = what_ifs[argument - len(predicts)]
                            assert (daemon.what_if(*question)
                                    == oracle.what_if(*question))
        finally:
            daemon.shutdown(drain=False)

    run()
