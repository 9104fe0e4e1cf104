"""One shape asked over more distinct contexts than ``memo_size``.

Plain predictions are a single shape, so a caller whose working set is
one context larger than the bound must lose one answer, not all of them:
the memo sheds that shape's oldest answers and keeps its newest
``memo_size`` — read through the daemon's status and through the
service's own counters alike (the daemon's front is a service, and its
memo is ``repro.util.cache.AnswerMemo``).
"""

import dataclasses

import pytest

from repro.core.service import TipsyService
from repro.serve import DaemonConfig, ServeDaemon

BOUND = 12
HOURS_FED = 30


def _front(wan, config):
    """The daemon's memo, read through ``status().front``."""
    daemon = ServeDaemon(wan, DaemonConfig(
        n_shards=2, workers="inline", service=config)).start()

    def counts():
        front = daemon.status().front
        return front.entries, front.hits, front.misses

    return daemon, counts, lambda: daemon.shutdown(drain=False)


def _service(wan, config):
    """A service's memo, read through ``cache_stats()``."""
    service = TipsyService(wan, config)

    def counts():
        stats = service.cache_stats()
        return (stats["memo_entries"], stats["memo_hits"],
                stats["memo_misses"])

    return service, counts, lambda: None


@pytest.mark.parametrize("holder", [_front, _service])
def test_working_set_one_over_the_bound_loses_one_answer(serve_world,
                                                         holder):
    wan = serve_world.scenario.wan
    oracle = TipsyService(wan, serve_world.config)
    target, counts, close = holder(wan, dataclasses.replace(
        serve_world.config, memo_size=BOUND))
    distinct = list(dict.fromkeys(serve_world.contexts))
    batch = distinct[:BOUND + 1]
    try:
        for hour in range(HOURS_FED):
            oracle.ingest_hour(hour, serve_world.hourly[hour])
            target.ingest_hour(hour, serve_world.hourly[hour])
        if holder is _front:
            target.drain()
        want = oracle.predict_batch(batch)
        assert any(want)
        assert target.predict_batch(batch) == want
        assert counts() == (BOUND, 0, BOUND + 1)
        # second time round: everything but the one answer shed is held
        assert target.predict_batch(batch) == want
        assert counts() == (BOUND, BOUND, BOUND + 2)
        # a batch several times the bound is answered in full, and the
        # newest BOUND of its answers are the ones kept
        big = distinct[:3 * BOUND + 5]
        assert target.predict_batch(big) == oracle.predict_batch(big)
        entries, hits, misses = counts()
        assert entries == BOUND
        assert target.predict_batch(big) == oracle.predict_batch(big)
        assert counts() == (BOUND, hits + BOUND, misses + len(big) - BOUND)
    finally:
        close()
