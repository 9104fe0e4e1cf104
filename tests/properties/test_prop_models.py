"""Property-based tests on model invariants.

These encode the §3 contract every ingress model must satisfy: rankings
sorted by score, availability priors respected, k honoured, byte-weighted
scores normalised, and the historical model's exact correspondence to the
empirical distribution.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FEATURES_A,
    FEATURES_AP,
    HistoricalModel,
    NaiveBayesModel,
    SequentialEnsemble,
)
from repro.pipeline import FlowContext
from tests.core.builders import from_rows

# a compact universe keeps collision (same-tuple) cases frequent
observations = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),      # asn
        st.integers(min_value=0, max_value=5),      # prefix
        st.integers(min_value=0, max_value=2),      # loc
        st.integers(min_value=0, max_value=1),      # region
        st.integers(min_value=0, max_value=1),      # service
        st.integers(min_value=0, max_value=9),      # link
        st.floats(min_value=0.001, max_value=1e9),  # bytes
    ),
    min_size=1, max_size=60,
)

queries = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
)

unavailable_sets = st.frozensets(st.integers(min_value=0, max_value=9),
                                 max_size=5)
ks = st.integers(min_value=1, max_value=6)


def train(cls, feature_set, obs):
    return from_rows(cls, feature_set, (
        (FlowContext(asn, prefix, loc, region, service), link, bytes_)
        for asn, prefix, loc, region, service, link, bytes_ in obs))


class TestModelContract:
    @given(observations, queries, ks, unavailable_sets)
    @settings(max_examples=60)
    def test_historical_contract(self, obs, query, k, unavailable):
        model = train(HistoricalModel, FEATURES_AP, obs)
        preds = model.predict(FlowContext(*query), k, unavailable)
        assert len(preds) <= k
        links = [p.link_id for p in preds]
        assert len(links) == len(set(links))
        assert not (set(links) & unavailable)
        scores = [p.score for p in preds]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in scores)

    @given(observations, queries, ks, unavailable_sets)
    @settings(max_examples=40)
    def test_naive_bayes_contract(self, obs, query, k, unavailable):
        model = train(NaiveBayesModel, FEATURES_A, obs)
        preds = model.predict(FlowContext(*query), k, unavailable)
        assert len(preds) <= k
        links = [p.link_id for p in preds]
        assert len(links) == len(set(links))
        assert not (set(links) & unavailable)
        scores = [p.score for p in preds]
        assert scores == sorted(scores, reverse=True)

    @given(observations, queries, ks)
    @settings(max_examples=40)
    def test_ensemble_answers_iff_some_component_does(self, obs, query, k):
        ap = train(HistoricalModel, FEATURES_AP, obs)
        a = train(HistoricalModel, FEATURES_A, obs)
        ensemble = SequentialEnsemble([ap, a])
        context = FlowContext(*query)
        preds = ensemble.predict(context, k)
        component_any = any(m.predict(context, 1) for m in (ap, a))
        assert bool(preds) == component_any


class TestHistoricalEmpiricalDistribution:
    @given(observations)
    @settings(max_examples=60)
    def test_scores_match_byte_fractions(self, obs):
        model = train(HistoricalModel, FEATURES_AP, obs)
        # recompute the empirical distribution independently
        table = {}
        for asn, prefix, loc, region, service, link, bytes_ in obs:
            key = (asn, prefix, region, service)
            table.setdefault(key, {}).setdefault(link, 0.0)
            table[key][link] += bytes_
        for (asn, prefix, region, service), by_link in table.items():
            context = FlowContext(asn, prefix, 0, region, service)
            total = sum(by_link.values())
            preds = model.predict(context, k=len(by_link))
            assert {p.link_id for p in preds} == set(by_link)
            for p in preds:
                assert abs(p.score - by_link[p.link_id] / total) < 1e-9

    @given(observations, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_prediction_prefix_consistency(self, obs, k):
        """predict(k) is always a prefix of predict(k+1)."""
        model = train(HistoricalModel, FEATURES_AP, obs)
        for asn, prefix, loc, region, service, _l, _b in obs[:10]:
            context = FlowContext(asn, prefix, loc, region, service)
            small = model.predict(context, k)
            large = model.predict(context, k + 1)
            assert large[:len(small)] == small
