"""Property-based tests on the accuracy metric (§5.1.2).

``TestColumnarIsTheDictScorer`` is the differential half: the columnar
scorer (``repro.core.accuracy.ActualsTable``, one ``predict`` per
distinct question and one gather over the rows) against the dict scorer
it replaced (``tests/core/accuracy_oracle.py``), over several slices with
their own priors, contexts the models never trained on, link 0 among
the actuals and ``k`` past any ranking.  Bytes are multiples of 2**15,
as the feed's sampled counts are, so link-matched sums are exact in any
grouping and compare as ``float.hex``; the strict-volume sums are not,
and compare as ``float.hex`` too, because the scorer adds them in a
walk's order: one running sum over the slices' contexts in order.

Hand mutants this suite kills (each applied in a scratch copy, seen to
fail here, and reverted): answers padded with link 0 rather than -1;
``predict`` called without the slice's prior; one answer per context
shared across slices (the slice left out of the question key); the
strict variant's per-question volumes summed with ``np.sum`` rather
than in order, and summed slice by slice rather than in one walk.  The
drawn cases find the two strict mutants only on some seeds;
``test_strict_volumes_add_in_the_walks_order`` pins terms that kill
both on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FEATURES_A,
    FEATURES_AL,
    FEATURES_AP,
    ActualsTable,
    HistoricalModel,
    IngressModel,
    NaiveBayesModel,
    OracleModel,
    SequentialEnsemble,
    evaluate_accuracy,
    Prediction,
)
from repro.pipeline import FlowContext
from tests.core import accuracy_oracle
from tests.core.accuracy_oracle import matched_bytes, volume_matched_bytes
from tests.core.builders import actuals_table, from_rows


actuals_strategy = st.dictionaries(
    keys=st.integers(min_value=0, max_value=8).map(
        lambda p: FlowContext(1, p, 0, 0, 0)),
    values=st.dictionaries(
        keys=st.integers(min_value=0, max_value=9),
        values=st.floats(min_value=0.01, max_value=1e9),
        min_size=1, max_size=5),
    min_size=1, max_size=8,
)


def oracle_for(actuals):
    return from_rows(OracleModel, FEATURES_AP, (
        (context, link, b) for context, by_link in actuals.items()
        for link, b in by_link.items()))


def evaluate(actuals, model, k, **kwargs):
    return evaluate_accuracy(actuals_table(actuals), model, k, **kwargs)


class TestMetricProperties:
    @given(actuals_strategy, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60)
    def test_bounded(self, actuals, k):
        oracle = oracle_for(actuals)
        acc = evaluate(actuals, oracle, k)
        assert 0.0 <= acc <= 1.0 + 1e-9

    @given(actuals_strategy)
    @settings(max_examples=60)
    def test_monotone_in_k(self, actuals):
        oracle = oracle_for(actuals)
        accs = [evaluate(actuals, oracle, k) for k in (1, 2, 3, 20)]
        assert accs == sorted(accs)

    @given(actuals_strategy)
    @settings(max_examples=60)
    def test_unrestricted_oracle_perfect(self, actuals):
        oracle = oracle_for(actuals)
        assert abs(evaluate(actuals, oracle, 10**6) - 1.0) < 1e-9

    @given(actuals_strategy)
    @settings(max_examples=60)
    def test_strict_never_exceeds_loose(self, actuals):
        oracle = oracle_for(actuals)
        for k in (1, 3):
            strict = evaluate(actuals, oracle, k, strict_volumes=True)
            loose = evaluate(actuals, oracle, k)
            assert strict <= loose + 1e-9

    @given(actuals_strategy)
    @settings(max_examples=40)
    def test_untrained_model_scores_zero(self, actuals):
        empty = from_rows(HistoricalModel, FEATURES_AP, ())
        assert evaluate(actuals, empty, 3) == 0.0


class TestMatchers:
    by_link = st.dictionaries(st.integers(0, 9),
                              st.floats(min_value=0.0, max_value=1e6),
                              min_size=1, max_size=6)
    preds = st.lists(
        st.tuples(st.integers(0, 9), st.floats(min_value=0.0, max_value=1.0)),
        max_size=4).map(lambda ps: [Prediction(l, s) for l, s in ps])

    @given(by_link, preds)
    @settings(max_examples=80)
    def test_matched_bounded_by_total(self, by_link, preds):
        # dedupe predicted links (the model contract guarantees this)
        seen = set()
        unique = [p for p in preds
                  if not (p.link_id in seen or seen.add(p.link_id))]
        total = sum(by_link.values())
        assert matched_bytes(by_link, unique) <= total + 1e-6
        assert volume_matched_bytes(by_link, unique) <= total + 1e-6

    @given(by_link, preds)
    @settings(max_examples=80)
    def test_volume_variant_dominated(self, by_link, preds):
        seen = set()
        unique = [p for p in preds
                  if not (p.link_id in seen or seen.add(p.link_id))]
        assert (volume_matched_bytes(by_link, unique)
                <= matched_bytes(by_link, unique) + 1e-6)


#: contexts over few values, so slices share contexts, AP keys merge
#: contexts that differ only in location, and some are never trained
contexts = st.builds(FlowContext, st.integers(1, 2), st.integers(0, 3),
                     st.integers(0, 2), st.integers(0, 1), st.just(0))
#: sampled byte counts: multiples of 2**15, as the feed's are
quanta = st.integers(1, 2 ** 20).map(lambda n: n * 2.0 ** 15)
slice_actuals = st.dictionaries(
    contexts, st.dictionaries(st.integers(0, 9), quanta, min_size=1,
                              max_size=4),
    min_size=1, max_size=16)
slices = st.lists(st.tuples(slice_actuals,
                            st.frozensets(st.integers(0, 9), max_size=3)),
                  min_size=1, max_size=4)
training = st.lists(st.tuples(contexts, st.integers(0, 9), quanta),
                    min_size=1, max_size=40)


class _Unkeyed(IngressModel):
    """A model that states no key fields: asked once per context."""

    name = "unkeyed"

    def __init__(self, inner):
        self.inner = inner

    def answers(self, contexts, k, prior=frozenset()):
        return self.inner.answers(contexts, k, prior)


def suite(rows):
    hist_ap = from_rows(HistoricalModel, FEATURES_AP, rows)
    hist_a = from_rows(HistoricalModel, FEATURES_A, rows)
    return [hist_ap, SequentialEnsemble([hist_ap, hist_a]),
            from_rows(NaiveBayesModel, FEATURES_AL, rows), _Unkeyed(hist_ap)]


def hexed(pair):
    return tuple(value.hex() for value in pair)


class TestColumnarIsTheDictScorer:
    @given(slices, training, st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_score_is_the_walk_over_slices(self, drawn, rows, k):
        """Each slice walked with its own prior: link-matched and total
        bytes as ``score_bytes`` sums them, strict volumes as one walk
        over the slices' contexts in order, to the bit."""
        actuals = ActualsTable([(actuals_table(by_context), prior)
                                for by_context, prior in drawn])
        for model in suite(rows):
            matched = total = walked = 0.0
            for by_context, prior in drawn:
                m, t = accuracy_oracle.score_bytes(by_context, model, k,
                                                   prior)
                matched += m
                total += t
                for context, by_link in by_context.items():
                    predictions = model.predict(context, k, prior)
                    if predictions:
                        walked += volume_matched_bytes(by_link, predictions)
            assert hexed(actuals.score(model, k)) == hexed((matched, total))
            assert (hexed(actuals.score(model, k, strict_volumes=True))
                    == hexed((walked, total))), model.name

    @given(slice_actuals, st.frozensets(st.integers(0, 9), max_size=3),
           training, st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_accuracy_is_the_dict_accuracy(self, by_context,
                                                    prior, rows, k):
        table = actuals_table(by_context)
        assert accuracy_oracle.actuals_map(table) == by_context
        for model in suite(rows):
            for strict in (False, True):
                got = evaluate_accuracy(table, model, k, prior, strict)
                want = accuracy_oracle.accuracy(by_context, model, k, prior,
                                                strict)
                assert got.hex() == want.hex(), (model.name, strict)

    def test_strict_volumes_add_in_the_walks_order(self):
        """Pinned terms where the order shows: each context earns a third
        of its bytes, and summing those thirds pairwise, or slice by
        slice, rounds differently from the one walk over both slices."""
        counts = [377765, 747519, 509075, 888798, 987223, 420716, 444551,
                  580125, 676824, 502779, 631364, 1005084, 769661, 332690,
                  445997, 421616, 157691, 965, 830444, 440595]
        flows = [FlowContext(1, prefix, 0, 0, 0) for prefix in range(20)]
        model = from_rows(HistoricalModel, FEATURES_AP, [
            row for flow in flows
            for row in ((flow, 1, 2.0 ** 15), (flow, 2, 2.0 ** 16))])
        drawn = [({flow: {1: n * 2.0 ** 15} for flow, n in zip(
            flows[lo:lo + 10], counts[lo:lo + 10])}, frozenset())
            for lo in (0, 10)]
        thirds = np.array(counts) * 2.0 ** 15 * (1.0 / 3.0)
        walked = float(np.cumsum(thirds)[-1])
        assert walked.hex() == "0x1.c6919aaaaaaa8p+36"
        assert float(thirds.sum()) != walked
        by_slice = 0.0
        for by_context, prior in drawn:
            by_slice += accuracy_oracle.score_bytes(by_context, model, 2,
                                                    prior, True)[0]
        assert by_slice != walked
        actuals = ActualsTable([(actuals_table(by_context), prior)
                                for by_context, prior in drawn])
        assert actuals.score(model, 2, strict_volumes=True)[0].hex() \
            == walked.hex()
