"""Differential property test: the sharded daemon's front vs one service.

A :class:`~repro.serve.ServeDaemon` answers every read from the suite
its front installs out of the shards' merged publications (their
folded AP, AL and A tables, stacked).  The reference is one
``TipsyService`` fed the same hours.  Whatever the stream over the small
world — which sources and links an hour carries, byte counts that tie
within a tuple (so a ranking is decided by link id), hours that cross
day boundaries and age days out of the window — and whatever the shard
count (1 to 4), the two must agree to the bit after every step: each of
the five served models asked per context under no prior, one withdrawn
link and three, ``predict_batch`` under those priors (the ensemble, and
AL+G completing rankings from the WAN's geography), and ``what_if``,
compared as ``float.hex`` in order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.service import ServiceConfig, TipsyService
from repro.pipeline import AggRecord
from repro.serve import DaemonConfig, ServeDaemon

MODELS = ("Hist_AP", "Hist_AL", "Hist_A", "Hist_AL+G", "Hist_AP/AL/A")
#: how many of the world's contexts and links a stream draws from
N_CONTEXTS, N_LINKS = 24, 12

#: byte counts: repeats make ties inside a tuple's ranking
byte_counts = st.one_of(st.sampled_from([1.0, 2.0, 2.0, 3.0, 0.5]),
                        st.floats(1e-3, 1e9))
rows = st.lists(st.tuples(st.integers(0, N_CONTEXTS - 1),
                          st.integers(0, N_LINKS - 1), byte_counts),
                max_size=20)
#: (hours the clock moves, the hour's rows): 24 and more cross a day
steps = st.lists(st.tuples(st.sampled_from([0, 1, 5, 23, 24, 30]), rows),
                 min_size=1, max_size=8)


def hexed(answers):
    return [[(p.link_id, p.score.hex()) for p in ranking]
            for ranking in answers]


def spill_hexed(spill):
    return [(link, value.hex()) for link, value in spill.items()]


def assert_same(daemon, service, contexts, priors, flows):
    front = daemon._front
    for prior in priors:
        assert (hexed(daemon.predict_batch(contexts, 3, prior))
                == hexed(service.predict_batch(contexts, 3, prior)))
        assert (spill_hexed(daemon.what_if(flows, prior, 2))
                == spill_hexed(service.what_if(flows, prior, 2)))
        for name in MODELS:
            assert (hexed(front.model(name).predict(c, 3, prior)
                          for c in contexts)
                    == hexed(service.model(name).predict(c, 3, prior)
                             for c in contexts))


@settings(max_examples=40, deadline=None)
@given(steps=steps, n_shards=st.integers(1, 4))
def test_front_suite_equals_one_service(small_scenario, steps, n_shards):
    wan = small_scenario.wan
    # sources spread over the shards; links of a few peers, so AL+G
    # completes rankings from the anchor's peer
    contexts = sorted(set(small_scenario.flow_contexts),
                      key=lambda c: (c.src_asn % 7, c))[:N_CONTEXTS]
    links = sorted(link.link_id for link in wan.links)[:N_LINKS]
    priors = (frozenset(), frozenset(links[:1]), frozenset(links[1:4]))
    flows = [(c, 10.0 + 3 * i) for i, c in enumerate(contexts)]
    config = ServiceConfig(training_window_days=2)
    service = TipsyService(wan, config)
    daemon = ServeDaemon(wan, DaemonConfig(
        n_shards=n_shards, workers="inline", service=config)).start()
    try:
        hour = 0
        for move, drawn in steps:
            hour += move
            records = [AggRecord(hour, links[link], *contexts[i], value)
                       for i, link, value in drawn]
            service.ingest_hour(hour, records)
            daemon.ingest_hour(hour, records)
            assert_same(daemon, service, contexts, priors, flows)
    finally:
        daemon.shutdown(drain=False)
