"""Differential property test: the ``what_if`` read path vs its oracle.

The CMS's safety question (paper §4.4) ends in two pieces of the
package: ``spill_from_groups``, one ``dict`` pass adding each link's
weights from 0.0 in input order, and AL+G's geographic completion,
which walks the WAN's kept nearest-first order of the anchor's peer.
The references are what they replaced (``tests/core/what_if_oracle.py``):
the numpy ``np.unique`` / ``np.bincount`` spill and a completion that
sorts the peer's links by ``(distance_km, link_id)`` on every call.

Whatever the WAN — several links of one peer at one metro (distance
ties), another peer at the same metro, link ids not in insertion order
— and whatever the AL table, ``k`` and prior (the anchor withdrawn, all
of its peer's links withdrawn), both must agree to the bit: spill key
order and ``float.hex``, completed rankings link by link.  The service,
an inline sharded daemon and the model itself must answer one
``what_if`` identically, and as the oracle spill over the oracle
completion does.

Hand mutants this suite kills (each applied in a scratch copy, seen to
fail here, and reverted): the weight summed as ``bytes_ * (score /
total)``; each link's weights added in ascending-weight order rather
than input order; distance ties broken by the higher link id first; a
completion that does not skip ``unavailable``; a halving step that
starts at ``0.5 ** 0``.
"""

import sys
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import FEATURES_AL, GeoAugmentedModel, HistoricalModel
from repro.core.base import Prediction, group_flows, spill_from_groups
from repro.core.service import ServiceConfig, TipsyService
from repro.pipeline import AggRecord, FlowContext
from repro.serve import DaemonConfig, ServeDaemon
from repro.topology import (CloudWAN, DestPrefix, MetroCatalog, PeeringLink,
                            Region)
from tests.core import what_if_oracle as oracle
from tests.core.builders import from_rows

METROS = MetroCatalog()
#: iad twice as likely: parallel sessions and other peers share it
PLACES = ("iad", "iad", "nyc", "atl", "lon")

#: groups of predictions: repeats make ties, 2**53 beside 1.0 makes a
#: per-link sum whose value depends on the order it adds in
scores = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.1, 0.3]),
                   st.floats(0.0, 1.0))
byte_counts = st.one_of(st.sampled_from([1.0, 2.0 ** 53, 3.0, 0.1, 0.2]),
                        st.floats(1e-6, 1e12))
groups = st.lists(st.tuples(
    st.lists(st.builds(Prediction, st.integers(0, 5), scores), max_size=4),
    byte_counts), max_size=12)


def hexed(predictions):
    return [(p.link_id, p.score.hex()) for p in predictions]


def hexed_spill(spill):
    return [(link, bytes_.hex()) for link, bytes_ in spill.items()]


@st.composite
def wans(draw):
    """Two to eight links of two or three peers at few metros, link ids
    drawn in any order."""
    ids = draw(st.lists(st.integers(0, 40), min_size=2, max_size=8,
                        unique=True), label="link ids")
    links = [PeeringLink(link, draw(st.sampled_from((100, 200, 300))),
                         metro, f"{metro}-er1", 100.0)
             for link in ids for metro in [draw(st.sampled_from(PLACES))]]
    return CloudWAN(8075, links, [Region("r", "iad")],
                    [DestPrefix(0, "100.64.0.0/24", "r", "web")], METROS)


def contexts_of(keys):
    """One flow of two prefixes per (AS, location, service) tuple."""
    return [FlowContext(asn, asn * 10 + prefix, loc, 0, service)
            for asn, loc, service in keys for prefix in (0, 1)]


@st.composite
def worlds(draw):
    """A WAN and AL observations: one to four links a tuple."""
    wan = draw(wans())
    tuples = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(0, 2),
                                     st.integers(0, 1)),
                           min_size=1, max_size=5, unique=True),
                  label="tuples")
    observed = [(context, link, draw(byte_counts))
                for context in contexts_of(tuples)
                for link in draw(st.lists(st.sampled_from(wan.link_ids),
                                          min_size=1, max_size=4,
                                          unique=True))]
    return wan, tuples, observed


def priors(draw, wan, anchor):
    """A prior that may withdraw the anchor and all of its peer's links."""
    peer = frozenset(link.link_id for link
                     in wan.links_of_peer(wan.link(anchor).peer_asn))
    some = draw(st.frozensets(st.sampled_from(wan.link_ids), max_size=4))
    return draw(st.sampled_from([
        frozenset(), some, frozenset({anchor}), peer, peer - {anchor},
        peer | some]), label="prior")


@given(groups)
@example([([Prediction(1, 1.0)], 1.0), ([Prediction(1, 1.0)], 2.0 ** 53),
          ([Prediction(1, 1.0)], 1.0)])
@example([([Prediction(3, 0.1), Prediction(0, 0.2)], 0.3),
          ([], 5.0), ([Prediction(2, 0.0)], 1.0),
          ([Prediction(0, 0.7), Prediction(3, 0.1)], 1e12)])
@settings(max_examples=200, deadline=None)
def test_spill_equals_the_numpy_sum(drawn):
    assert (hexed_spill(spill_from_groups(drawn))
            == hexed_spill(oracle.spill_from_groups(drawn)))


@given(worlds(), st.data())
@settings(max_examples=100, deadline=None)
def test_completion_equals_the_sorting_completion(world, data):
    wan, tuples, observed = world
    base = from_rows(HistoricalModel, FEATURES_AL, observed)
    got = GeoAugmentedModel(base, wan)
    want = oracle.OracleGeoAugmentedModel(base, wan)
    for context in contexts_of(tuples) + [FlowContext(9, 0, 0, 0, 0)]:
        anchor = base.predict(context, 1)
        prior = (priors(data.draw, wan, anchor[0].link_id) if anchor
                 else frozenset())
        for k in range(1, 6):
            assert (hexed(got.predict(context, k, prior))
                    == hexed(want.predict(context, k, prior)))


@given(worlds(), st.data())
@settings(max_examples=25, deadline=None)
def test_service_daemon_and_model_ask_one_question(world, data):
    wan, tuples, observed = world
    records = [AggRecord(0, link, *context, bytes_)
               for context, link, bytes_ in observed]
    config = ServiceConfig(training_window_days=3)
    service = TipsyService(wan, config)
    daemon = ServeDaemon(wan, DaemonConfig(
        n_shards=2, workers="inline", service=config)).start()
    try:
        for front in (service, daemon):
            front.ingest_hour(0, records)
            front.ingest_hour(24, [])
        daemon.drain()
        model = service.model(config.withdrawal_model)
        contexts = contexts_of(tuples) + [FlowContext(9, 0, 0, 0, 0)]
        flows = data.draw(st.lists(st.tuples(
            st.sampled_from(contexts), byte_counts), max_size=20),
            label="flows")
        anchor = model.base.predict(flows[0][0], 1) if flows else []
        withdrawn = (priors(data.draw, wan, anchor[0].link_id) if anchor
                     else data.draw(st.frozensets(
                         st.sampled_from(wan.link_ids), max_size=4)))
        k = data.draw(st.integers(1, 5), label="k")
        completion = oracle.OracleGeoAugmentedModel(model.base, wan)
        want = hexed_spill(oracle.spill_from_groups(
            (completion.predict(context, k, withdrawn), bytes_)
            for context, bytes_ in zip(*group_flows(FEATURES_AL.key,
                                                    flows))))
        assert hexed_spill(model.what_if(flows, withdrawn, k)) == want
        assert hexed_spill(service.what_if(flows, withdrawn, k)) == want
        assert hexed_spill(daemon.what_if(flows, withdrawn, k)) == want
    finally:
        daemon.shutdown(drain=False)


def test_threads_asking_a_fresh_wan_get_one_order():
    """Orders fill on first ask, from any thread: threads racing to
    complete from a fresh WAN all get the sorting completion's order."""
    links = [PeeringLink(link, 100 + link % 3, PLACES[link % len(PLACES)],
                         "er1", 100.0) for link in range(60)]

    def sorted_order(wan, link):
        anchor = wan.link(link)
        return tuple(l.link_id for l in sorted(
            wan.links_of_peer(anchor.peer_asn), key=lambda l: (
                METROS.distance_km(anchor.metro, l.metro), l.link_id)))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            wan = CloudWAN(8075, links, [Region("r", "iad")],
                           [DestPrefix(0, "100.64.0.0/24", "r", "web")],
                           METROS)
            expected = [sorted_order(wan, link) for link in wan.link_ids]
            answers = [None] * 4

            def ask(slot, wan=wan, answers=answers):
                order = wan.link_ids if slot % 2 else wan.link_ids[::-1]
                got = {link: wan.nearest_peer_links(link) for link in order}
                answers[slot] = [got[link] for link in wan.link_ids]

            threads = [threading.Thread(target=ask, args=(slot,))
                       for slot in range(len(answers))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert answers == [expected] * len(answers)
    finally:
        sys.setswitchinterval(switch)
