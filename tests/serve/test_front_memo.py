"""The daemon's front: every read is answered in its own process from
the suite the shards last published, remembered in that suite's memo,
and bit-identical to the single-process service.

A repeated question is answered from the memo without touching a model;
these tests ask everything several times, across day boundaries, while
a shard is still rebuilding its next suite, with the daemon's locks
held, across a resume, and under a bound smaller than one batch, always
against the single-process oracle.
"""

import dataclasses
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.service import TipsyService
from repro.core.window import RollingWindow
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


@pytest.mark.parametrize("workers", WORKER_MODES)
def test_a_bad_k_is_refused_before_the_memo_and_the_shards(
        serve_world, workers):
    """A negative ``k`` is the single service's ``ValueError``, raised
    before the memo is read or any shard is asked: the memo keeps every
    answer it held, and the next good question is answered from it
    alone."""
    daemon = _daemon(serve_world, workers)
    oracle = _oracle(serve_world, 30)
    batch = serve_world.contexts[:50]
    flows = [(context, 10.0) for context in batch]
    try:
        _feed(serve_world, 0, 30, daemon)
        daemon.drain()
        assert daemon.predict_batch(batch) == oracle.predict_batch(batch)
        held = daemon.status().front
        assert held.entries > 0
        asked = []
        gather = daemon._gather

        def counted(op, *args):
            asked.append(op)
            return gather(op, *args)

        daemon._gather = counted
        for target in (daemon, oracle):
            with pytest.raises(ValueError, match="k must be at least 1"):
                target.predict_batch(batch, k=-1)
            with pytest.raises(ValueError, match="k must be at least 1"):
                target.what_if(flows, frozenset(), k=-2)
        assert asked == []
        del daemon._gather
        front = daemon.status().front
        assert front == held
        assert daemon.predict_batch(batch) == oracle.predict_batch(batch)
        assert daemon.status().front.hop_free == held.hop_free + 1
    finally:
        daemon.shutdown(drain=False)


#: hour 72 starts day 3, so its retrain brings day 2 into the models
BOUNDARY = 72


def test_a_lagging_shard_holds_the_feed_and_not_the_reads(serve_world,
                                                        monkeypatch):
    """Shard 1's fold is parked half-way (as ``test_hotswap`` parks a
    retrain): shard 0 has folded the new day, shard 1 has not, so the feed of
    the day's first hour waits for the publication.  Reads meanwhile
    are the old suite's, whole — never shard 0's new answers beside
    shard 1's old ones — and are remembered as such; the publication
    swaps in the new suite with a fresh memo."""
    daemon = _daemon(serve_world, "inline")
    before = _oracle(serve_world, BOUNDARY)
    after = _oracle(serve_world, BOUNDARY + 1)
    batch = serve_world.contexts[:40]
    owners = [shard_of(context.src_asn, 2) for context in batch]
    old, new = before.predict_batch(batch), after.predict_batch(batch)
    mixed = [new[i] if owner == 0 else old[i]
             for i, owner in enumerate(owners)]
    assert mixed != old and mixed != new  # otherwise the test is vacuous

    parked, release = threading.Event(), threading.Event()
    folded = RollingWindow._folded

    def park_shard_1(window):
        fold = folded(window)
        if (threading.current_thread().name == "serve-ingest-1"
                and not parked.is_set()):
            parked.set()
            assert release.wait(30)
        return fold

    feeder = threading.Thread(target=daemon.ingest_hour, args=(
        BOUNDARY, serve_world.hourly[BOUNDARY]))
    try:
        _feed(serve_world, 0, BOUNDARY, daemon)
        daemon.drain()
        monkeypatch.setattr(RollingWindow, "_folded", park_shard_1)
        feeder.start()
        assert parked.wait(30)
        daemon._handles[0]._queue.join()  # shard 0 has folded day 3
        for asked in range(3):
            assert daemon.predict_batch(batch) == old
        assert feeder.is_alive()  # waiting for shard 1's publication
        # (status() would wait too: the publication holds the shard lock)
        front = daemon._front.memo_stats()
        assert front.entries == len(set(batch)) and front.hop_free >= 2
        release.set()
        feeder.join(30)
        assert not feeder.is_alive()
        assert daemon.status().front.entries == 0  # retired with day 2
        for _ in range(2):
            assert daemon.predict_batch(batch) == new
        assert daemon.status().front.hop_free == front.hop_free + 1
    finally:
        release.set()
        feeder.join(30)
        daemon.shutdown(drain=False)


@pytest.mark.parametrize("workers", WORKER_MODES)
def test_no_query_waits_for_a_daemon_lock(serve_world, workers):
    """A checkpoint holds both daemon locks from drain to manifest; a
    warm query and one about contexts never asked both still return."""
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
        with daemon._feed_lock, daemon._shard_lock:
            for batch in (warm, cold):
                thread = ask(batch)
                thread.join(10)
                assert not thread.is_alive(), "a query waited for a lock"
        assert answers == [oracle.predict_batch(warm),
                           oracle.predict_batch(cold)]
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
        head, *shards = status.format_text().splitlines()
        assert head.endswith(
            "front memo=30 (70 hits, 35 misses, 2 queries from it alone)")
        # the front's is the only memo: a shard line names none
        assert len(shards) == 2 and not any("memo" in s for s in shards)
        snapshot = obs.snapshot()
        assert {name: value for name, value in snapshot.gauges.items()
                if name.startswith("serve.front.")} == {
            "serve.front.entries": 30.0, "serve.front.hits": 70.0,
            "serve.front.misses": 35.0, "serve.front.hop_free": 2.0}
        assert not [name for name in snapshot.gauges
                    if name.startswith("serve.shard") and "memo" in name]
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
