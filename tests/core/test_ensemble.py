"""Tests for sequential ensembles."""

import pytest

from repro.core import (
    FEATURES_A,
    FEATURES_AL,
    FEATURES_AP,
    GeoAugmentedModel,
    HistoricalModel,
    SequentialEnsemble,
)
from repro.pipeline import FlowContext
from tests.core.builders import from_rows


def ctx(asn=1, prefix=10, loc=0, region=0, service=0):
    return FlowContext(asn, prefix, loc, region, service)


#: prefix 10 known to all three grains; prefix 11 only at AL/A grain via
#: pooling; AS 2 unknown everywhere
ROWS = ((ctx(prefix=10), 5, 100.0), (ctx(prefix=10), 7, 50.0))


def hist(features, rows=ROWS, cls=HistoricalModel):
    return from_rows(cls, features, rows)


@pytest.fixture()
def suite():
    return hist(FEATURES_AP), hist(FEATURES_AL), hist(FEATURES_A)


class TestSequentialFallback:
    def test_first_model_answers_when_it_can(self, suite):
        ap, al, a = suite
        ensemble = SequentialEnsemble([ap, al, a])
        preds = ensemble.predict(ctx(prefix=10), 2)
        assert preds == ap.predict(ctx(prefix=10), 2)

    def test_falls_back_on_unseen_tuple(self, suite):
        ap, al, a = suite
        ensemble = SequentialEnsemble([ap, al, a])
        # new prefix from the same AS+loc: AP has nothing, AL pools
        preds = ensemble.predict(ctx(prefix=11), 2)
        assert not ap.predict(ctx(prefix=11), 2)
        assert preds == al.predict(ctx(prefix=11), 2)

    def test_falls_through_to_last(self, suite):
        ap, al, a = suite
        # a only-A-can-answer flow: same AS+dest, different loc & prefix
        flow = ctx(prefix=12, loc=9)
        ensemble = SequentialEnsemble([ap, al, a])
        assert not ap.predict(flow, 1) and not al.predict(flow, 1)
        assert ensemble.predict(flow, 1) == a.predict(flow, 1) != []

    def test_no_answer_anywhere(self, suite):
        ap, al, a = suite
        ensemble = SequentialEnsemble([ap, al, a])
        stranger = ctx(asn=2, prefix=99, loc=4, region=3, service=2)
        assert ensemble.predict(stranger, 3) == []

    def test_fallback_when_all_links_unavailable_in_first(self, suite):
        """§3.3.1: 'resort to model B if there is no prediction in A' —
        including when A's only links are withdrawn."""
        ap, _al, a = suite
        # AL knows an extra link
        al = hist(FEATURES_AL, (*ROWS, (ctx(prefix=10), 9, 10.0)))
        ensemble = SequentialEnsemble([ap, al, a])
        unavailable = frozenset({5, 7})
        preds = ensemble.predict(ctx(prefix=10), 2, unavailable)
        assert [p.link_id for p in preds] == [9]


class TestEnsembleAPI:
    def test_name_composition(self, suite):
        ap, al, a = suite
        assert SequentialEnsemble([ap, al, a]).name == "Hist_AP/Hist_AL/Hist_A"
        assert SequentialEnsemble([ap], name="solo").name == "solo"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SequentialEnsemble([])

    def test_size_is_sum(self, suite):
        ap, al, a = suite
        ensemble = SequentialEnsemble([ap, al, a])
        assert ensemble.size() == ap.size() + al.size() + a.size()


class TestGroupKey:
    """One projection onto the union of the components' fields stands
    for the tuple of component keys: it splits flows the same way."""

    @pytest.mark.parametrize("order", [
        (FEATURES_AP, FEATURES_AL, FEATURES_A),
        (FEATURES_AL, FEATURES_AP, FEATURES_A),
        (FEATURES_AL, FEATURES_A),
    ])
    def test_union_key_partitions_flows_as_component_keys_do(
            self, small_scenario, order):
        models = [hist(fs) for fs in order]
        ensemble = SequentialEnsemble(models)
        contexts = list(small_scenario.flow_contexts)
        contexts += [c._replace(src_prefix=c.src_prefix + 1)
                     for c in contexts[:200]]
        pairs = {(ensemble.group_key(c),
                  tuple(m.group_key(c) for m in models)) for c in contexts}
        assert len(pairs) > 100
        # a bijection between the two keys over every flow seen
        assert (len({union for union, _ in pairs}) == len(pairs)
                == len({components for _, components in pairs}))

    def test_every_field_in_the_union_means_the_context_itself(self):
        ensemble = SequentialEnsemble(
            [hist(fs) for fs in (FEATURES_AP, FEATURES_AL, FEATURES_A)])
        flow = ctx(prefix=11, loc=3)
        assert ensemble.group_key(flow) is flow

    def test_narrower_union_projects(self):
        ensemble = SequentialEnsemble(
            [hist(FEATURES_AL), hist(FEATURES_A)])
        assert ensemble.group_key(ctx(prefix=10, loc=3)) == (1, 3, 0, 0)
        assert (ensemble.group_key(ctx(prefix=10))
                == ensemble.group_key(ctx(prefix=11)))

    def test_component_without_a_feature_set_keeps_the_tuple_of_keys(
            self, suite, small_scenario):
        ap, al, a = suite
        geo = GeoAugmentedModel(al, small_scenario.wan)
        nested = SequentialEnsemble([al, a])
        for models in ([ap, geo, a], [ap, nested]):
            ensemble = SequentialEnsemble(models)
            flow = ctx(prefix=11, loc=3)
            assert ensemble.group_key(flow) == tuple(
                m.group_key(flow) for m in models)
            assert ensemble.group_key(flow) != flow

    def test_a_feature_set_alone_does_not_state_the_key(self, suite):
        """Only ``key_fields`` opts a component into the union key: a
        model that keys more finely than the ``feature_set`` it carries
        (and says so by stating no ``key_fields``) keeps its own key."""

        class PerPrefix(HistoricalModel):
            def group_key(self, context):
                return (context.src_prefix, *super().group_key(context))

            key_fields = None

        _ap, al, a = suite
        finer = hist(FEATURES_AL, cls=PerPrefix)
        assert finer.feature_set is FEATURES_AL
        ensemble = SequentialEnsemble([finer, a])
        flow = ctx(prefix=10, loc=3)
        assert ensemble.group_key(flow) == (
            finer.group_key(flow), a.group_key(flow))
        assert (ensemble.group_key(flow)
                != ensemble.group_key(ctx(prefix=11, loc=3)))
        # the same fields, stated: the projection onto AL (prefix ignored)
        assert (SequentialEnsemble([al, a]).group_key(flow)
                == SequentialEnsemble([al, a]).group_key(ctx(prefix=11, loc=3)))

