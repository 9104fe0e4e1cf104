"""Differential property test: a batch answer vs the per-context predict.

Every model implements one batch method, ``IngressModel.answers``:
the historical model goes key -> group -> slot for each context, the
ensemble asks each member only for the rows its predecessors left
empty, AL+G reads each base ranking once and takes its anchor from that
ranking's first row, and Naive Bayes builds its availability mask once
a batch.  The references answer one context at a time, as the models
did before the batch form: the dict-built historical model, the
sorting AL+G completion (which reads its base twice for a row short of
``k``) and the row-walk Naive Bayes of ``tests/core``, and a
first-answer ensemble over them.

Whatever the table and the WAN, ``k`` (1 to 5) and the prior (none, the
anchor withdrawn, the anchor's whole peer withdrawn, a few links), and
whether a context was seen in training or not, a batch answer — asked
once, with repeats — must equal each context's reference ``predict``
exactly: the same links in the same order, the same ``float.hex``
scores.

Hand mutants this suite kills (each applied in a scratch copy, seen to
fail here, and reverted): the prior's links filtered out after the cut
at ``k``; an ensemble row answered again when it already had an answer;
AL+G's base read cut at ``k`` rather than ``k`` plus the prior's size;
AL+G anchored on the first available link rather than the ranking's
first; Naive Bayes's availability mask built over its links reversed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (ALL_FEATURE_SETS, FEATURES_AL, NaiveBayesModel,
                        SequentialEnsemble)
from repro.core.ensemble import BASE_GRAINS, build_suite
from repro.core.training import DayCounts
from repro.pipeline import FlowContext
from repro.topology import (CloudWAN, DestPrefix, MetroCatalog, PeeringLink,
                            Region)
from tests.core import what_if_oracle
from tests.core.historical_oracle import DictHistoricalModel
from tests.core.naive_bayes_oracle import DictNaiveBayesModel
from tests.core.per_context import PerContextModel

METROS = MetroCatalog()
PLACES = ("iad", "iad", "nyc", "atl", "lon")

#: (asn, loc, region, service): an AL tuple; each is trained through
#: one to three source prefixes
tuples = st.tuples(st.integers(1, 2), st.integers(0, 1), st.integers(0, 1),
                   st.integers(0, 1))
#: questions reach one past the trained values, so some are never seen
asked_contexts = st.builds(FlowContext, st.integers(1, 3), st.integers(0, 3),
                           st.integers(0, 2), st.integers(0, 1),
                           st.integers(0, 1))
#: the feed's byte counts are integral; 2**53 beside 1.0 and the
#: fractions take the fsum path
byte_counts = st.one_of(st.sampled_from([1.0, 2.0 ** 53, 3.0, 0.1, 0.3]),
                        st.integers(1, 2 ** 40).map(float),
                        st.floats(1e-6, 1e12))


def hexed(answer):
    return [(p.link_id, p.score.hex()) for p in answer]


class FirstAnswer(PerContextModel):
    """``A/B`` one context at a time: the first member with an answer."""

    def __init__(self, models):
        self.models = models

    def predict(self, context, k, unavailable=frozenset()):
        for model in self.models:
            predictions = model.predict(context, k, unavailable)
            if predictions:
                return predictions
        return []


@st.composite
def worlds(draw):
    """A WAN of two to eight links and a table over its links: one to
    four links a context, so AL and A tuples rank several."""
    ids = draw(st.lists(st.integers(0, 40), min_size=2, max_size=8,
                        unique=True), label="link ids")
    links = [PeeringLink(link, draw(st.sampled_from((100, 200))), metro,
                         f"{metro}-er1", 100.0)
             for link in ids for metro in [draw(st.sampled_from(PLACES))]]
    wan = CloudWAN(8075, links, [Region("r", "iad")],
                   [DestPrefix(0, "100.64.0.0/24", "r", "web")], METROS)
    table = {}
    for asn, loc, region, service in draw(st.lists(
            tuples, min_size=1, max_size=4, unique=True), label="tuples"):
        for prefix in range(draw(st.integers(1, 3))):
            context = FlowContext(asn, prefix, loc, region, service)
            for link in draw(st.lists(st.sampled_from(ids), min_size=1,
                                      max_size=4, unique=True)):
                table[context, link] = draw(byte_counts)
    return wan, table


def models_and_references(wan, table):
    """The served suite and Naive Bayes, each beside its reference."""
    counts = DayCounts.fold(*zip(*((context, link, bytes_) for
                                   (context, link), bytes_ in table.items())))
    suite = build_suite([counts.project(fs) for fs in BASE_GRAINS], wan)
    dicts = {fs.name: DictHistoricalModel.from_arrays(counts.project(fs), fs)
             for fs in BASE_GRAINS}
    pairs = [(suite[f"Hist_{name}"], dicts[name]) for name in dicts]
    pairs.append((suite["Hist_AL+G"], what_if_oracle.OracleGeoAugmentedModel(
        dicts[FEATURES_AL.name], wan)))
    pairs.append((suite["Hist_AP/AL/A"], FirstAnswer(list(dicts.values()))))
    for fs in ALL_FEATURE_SETS:
        bayes = DictNaiveBayesModel(fs)
        for (context, link), bytes_ in table.items():
            bayes.observe(context, link, bytes_)
        bayes.finalize()
        pairs.append((NaiveBayesModel.from_arrays(counts.to_arrays(), fs),
                      bayes))
    # an ensemble whose later members are asked only the empty rows
    pairs.append((SequentialEnsemble([suite["Hist_AP"], pairs[-1][0]]),
                  FirstAnswer([dicts["AP"], pairs[-1][1]])))
    return pairs


def priors(draw, wan, anchors):
    """No prior, an anchor withdrawn, its whole peer, or a few links."""
    anchor = draw(st.sampled_from(anchors)) if anchors else wan.link_ids[0]
    peer = frozenset(link.link_id for link
                     in wan.links_of_peer(wan.link(anchor).peer_asn))
    some = draw(st.frozensets(st.sampled_from(wan.link_ids), max_size=3))
    return draw(st.sampled_from([frozenset(), frozenset({anchor}), peer,
                                 peer - {anchor}, some, some | {anchor}]),
                label="prior")


@given(worlds(), st.data())
@settings(max_examples=80, deadline=None)
def test_batch_answers_equal_per_context_predict(world, data):
    wan, table = world
    seen = [context for context, _link in table]
    batch = data.draw(st.lists(st.one_of(st.sampled_from(seen),
                                         asked_contexts),
                               min_size=1, max_size=16), label="batch")
    pairs = models_and_references(wan, table)
    # AL+G's anchors: the AL ranking's first links
    al_reference = pairs[1][1]
    anchors = sorted({answer[0].link_id for answer in map(
        lambda context: al_reference.predict(context, 1), batch) if answer})
    for model, reference in pairs:
        k = data.draw(st.integers(1, 5), label="k")
        prior = priors(data.draw, wan, anchors)
        got = model.answers(batch, k, prior)
        assert len(got) == len(batch)
        assert all(type(answer) is tuple for answer in got), model.name
        assert [hexed(answer) for answer in got] == [
            hexed(reference.predict(context, k, prior))
            for context in batch], model.name
