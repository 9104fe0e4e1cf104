"""Differential property test: a service that remembers vs one that
does not.

``TipsyService`` answers a flow it has been asked before, under the same
published suite and the same shape ``(model, k, unavailable)``, from its
``AnswerMemo``.  The reference is the same service with ``memo_size=0``
— every answer read off the models — fed the same stream.  Whatever the
interleaving of batches (duplicates inside one, an empty one, contexts
no model knows), ``k``, withdrawal sets, ``what_if`` questions and
day-boundary retrains, under a bound of a few answers or none to speak
of, the two must agree element for element: a remembered answer that
outlived the suite that gave it, or was filed under the wrong shape,
shows as a difference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.service import ServiceConfig, TipsyService
from repro.pipeline import AggRecord, FlowContext
from repro.topology import (CloudWAN, DestPrefix, MetroCatalog, PeeringLink,
                            Region)

#: (src_asn, src_prefix, src_loc, dest_region, dest_service): prefixes
#: share (AS, location) groups, so the withdrawal model answers several
#: contexts from one key
KEYS = [(1 + p % 2, p, p % 3, 0, p % 5 // 4) for p in range(18)]
CONTEXTS = [FlowContext(*key) for key in KEYS] + [
    FlowContext(9, 99, 0, 0, 0), FlowContext(1, 77, 1, 0, 0)]
LINKS = (0, 1, 2)

picks = st.lists(st.integers(0, len(CONTEXTS) - 1), max_size=12)
shapes = st.tuples(st.sampled_from([None, 1, 2, 5]),
                   st.sampled_from([(), (), (0,), (1,), (0, 2), LINKS]))
actions = st.lists(st.one_of(
    # how far the clock moves (24+ crosses a day: a retrain) and which
    # keys the hour carries
    st.tuples(st.just("feed"), st.sampled_from([0, 1, 1, 7, 24, 24, 30]),
              st.lists(st.integers(0, len(KEYS) - 1), max_size=8)),
    st.tuples(st.just("batch"), picks, shapes),
    st.tuples(st.just("one"), st.integers(0, len(CONTEXTS) - 1), shapes),
    st.tuples(st.just("what_if"), picks, shapes),
), min_size=6, max_size=40)


def wan() -> CloudWAN:
    links = [PeeringLink(i, 100 + i, metro, f"{metro}-er1", 100.0)
             for i, metro in enumerate(("iad", "nyc", "atl"))]
    return CloudWAN(8075, links, [Region("r", "iad")],
                    [DestPrefix(0, "100.64.0.0/24", "r", "web")],
                    MetroCatalog())


def records(hour, keys):
    """The hour's rows, every key on all three links so ``k`` matters;
    which link leads moves with the day, so a retrain changes what the
    models answer."""
    return [AggRecord(hour, LINKS[(key + hour // 24 + rank) % 3],
                      *KEYS[key],
                      float(1 + (7 * hour + 13 * key) % 11) / (1 + rank))
            for key in keys for rank in range(3)]


@settings(max_examples=60, deadline=None)
@given(actions=actions, memo_size=st.sampled_from([1, 3, 8, 65536]))
def test_remembered_answers_equal_answers_read_off_the_models(
        actions, memo_size):
    world = wan()
    remembering = TipsyService(world, ServiceConfig(
        training_window_days=2, memo_size=memo_size))
    reference = TipsyService(world, ServiceConfig(
        training_window_days=2, memo_size=0))
    hour = 0
    for service in (remembering, reference):
        service.ingest_hour(0, records(0, range(len(KEYS))))
    for action, argument, detail in actions:
        if action == "feed":
            hour += argument
            for service in (remembering, reference):
                service.ingest_hour(hour, records(hour, detail))
            continue
        k, unavailable = detail
        for _ in range(2):  # the second time round is the remembered one
            if action == "batch":
                batch = [CONTEXTS[i] for i in argument]
                got = remembering.predict_batch(batch, k, set(unavailable))
                assert got == reference.predict_batch(
                    batch, k, frozenset(unavailable))
                assert len(got) == len(batch)
            elif action == "one":
                assert (remembering.predict(CONTEXTS[argument], k,
                                            unavailable)
                        == reference.predict(CONTEXTS[argument], k,
                                             unavailable))
            else:
                flows = [(CONTEXTS[i], 10.0 + 3 * n)
                         for n, i in enumerate(argument)]
                assert (remembering.what_if(flows, unavailable, k)
                        == reference.what_if(flows, unavailable, k))
        stats = remembering.cache_stats()
        assert stats["memo_entries"] <= memo_size
    assert reference.cache_stats()["memo_entries"] == 0
    assert reference.cache_stats()["memo_hits"] == 0
    if memo_size == 65536:
        assert remembering.cache_stats()["memo_evictions"] == 0
