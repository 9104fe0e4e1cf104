"""Tests for the online prediction service (§4)."""

import dataclasses

import pytest

from repro.core import (GeoAugmentedModel, HistoricalModel,
                        SequentialEnsemble)
from repro.core.base import NO_LINKS, IngressModel
from repro.core.features import FEATURES_AL
from repro.core.service import ServiceConfig, TipsyService
from repro.pipeline import AggColumns, AggRecord, FlowContext
from repro.topology import (
    CloudWAN,
    DestPrefix,
    MetroCatalog,
    PeeringLink,
    Region,
)
from repro.util.cache import AnswerMemo

from tests.core.spill_reference import what_if_per_flow


def rec(hour, link, prefix, bytes_=100.0):
    return AggRecord(hour, link, 1, prefix, 0, 0, 0, bytes_)


def ctx(prefix):
    return FlowContext(1, prefix, 0, 0, 0)


def per_flow(service, flows, withdrawn):
    """The per-flow reference over the service's withdrawal model."""
    return what_if_per_flow(service.model(service.config.withdrawal_model),
                            flows, withdrawn, service.config.prediction_k)


@pytest.fixture()
def wan():
    metros = MetroCatalog()
    links = [PeeringLink(i, 100, m, f"{m}-er1", 100.0)
             for i, m in enumerate(("iad", "nyc", "atl"))]
    return CloudWAN(8075, links, [Region("r", "iad")],
                    [DestPrefix(0, "100.64.0.0/24", "r", "web")], metros)


@pytest.fixture()
def service(wan):
    return TipsyService(wan, ServiceConfig(training_window_days=3))


class TestIngestionAndRetraining:
    def test_not_ready_before_first_full_day(self, service):
        service.ingest_hour(0, [rec(0, 0, 1)])
        assert not service.ready

    def test_retrains_on_day_boundary(self, service):
        for hour in range(24):
            service.ingest_hour(hour, [rec(hour, 0, 1)])
        before = service.retrain_count
        service.ingest_hour(24, [rec(24, 0, 1)])
        assert service.retrain_count == before + 1
        assert service.ready
        assert service.trained_days == (0,)

    def test_rolling_window_evicts(self, service):
        for day in range(6):
            service.ingest_hour(day * 24, [rec(day * 24, 0, 1)])
        # window is 3 days: old days gone from training
        assert min(service.trained_days) >= 2

    def test_out_of_order_rejected(self, service):
        service.ingest_hour(30, [])
        with pytest.raises(ValueError):
            service.ingest_hour(2, [])

    def test_records_of_another_hour_are_rejected(self, service):
        """Rows labelled hour 30 handed in as hour 2 would silently train
        day 0 with day 1's traffic; both input shapes refuse, naming both
        hours, before any state moves."""
        stray = [rec(2, 0, 1), rec(30, 0, 1)]
        for records in (stray, AggColumns.of(30, stray[1:]),
                        AggColumns.of(30, stray[1:]).to_records()):
            with pytest.raises(ValueError, match="hour 30 .* hour 2"):
                service.ingest_hour(2, records)
        assert service.last_hour is None and service.retrain_count == 0
        service.ingest_hour(2, stray[:1])
        service.ingest_hour(30, AggColumns.of(30, stray[1:]))
        assert service.trained_days == (0,)

    def test_current_day_excluded_from_training(self, service):
        service.ingest_hour(0, [rec(0, 0, 1)])
        service.ingest_hour(24, [rec(24, 1, 1)])  # today: link 1
        # trained only on day 0: predicts link 0, not link 1
        preds = service.predict(ctx(1))
        assert [p.link_id for p in preds] == [0]


class TestQueries:
    def _train(self, service):
        service.ingest_hour(0, [rec(0, 0, 1, 100.0), rec(0, 1, 1, 30.0),
                                rec(0, 0, 2, 50.0)])
        service.ingest_hour(24, [])

    def test_predict(self, service):
        self._train(service)
        preds = service.predict(ctx(1))
        assert preds[0].link_id == 0

    def test_predict_with_prior_uses_withdrawal_model(self, service):
        self._train(service)
        preds = service.predict(ctx(1), unavailable=frozenset({0}))
        assert preds
        assert preds[0].link_id != 0

    def test_what_if_spill(self, service):
        self._train(service)
        spill = service.what_if([(ctx(1), 1000.0), (ctx(2), 500.0)],
                                withdrawn=frozenset({0}))
        assert -1 not in spill or spill[-1] < 1500.0
        assert sum(spill.values()) == pytest.approx(1500.0)
        assert 0 not in spill

    def test_what_if_unplaceable(self, wan):
        service = TipsyService(wan)
        service.ingest_hour(0, [rec(0, 0, 9)])
        service.ingest_hour(24, [])
        # withdraw every link the flow (and its peer) could use
        spill = service.what_if([(ctx(9), 100.0)],
                                withdrawn=frozenset(wan.link_ids))
        assert spill == {-1: 100.0}

    def test_query_before_training_raises(self, service):
        with pytest.raises(RuntimeError):
            service.predict(ctx(1))


class TestWindowAndOrdering:
    def test_eviction_at_horizon_boundary(self, service):
        """A day exactly window_days old stays; one older is evicted."""
        for day in range(5):
            service.ingest_hour(day * 24, [rec(day * 24, 0, 1)])
        # today = 4, window = 3: horizon is day 1; day 0 is gone
        assert service.trained_days == (1, 2, 3)

    def test_hour_order_enforced_within_day(self, service):
        service.ingest_hour(5, [])
        with pytest.raises(ValueError):
            service.ingest_hour(4, [])

    def test_same_hour_may_repeat(self, service):
        service.ingest_hour(0, [rec(0, 0, 1, 60.0)])
        service.ingest_hour(0, [rec(0, 0, 1, 40.0)])
        service.ingest_hour(24, [])
        assert service.model("Hist_AP").bytes_for(ctx(1)) == {0: 100.0}

    def test_day_gap_drops_stale_days(self, service):
        service.ingest_hour(0, [rec(0, 0, 1)])
        service.ingest_hour(24, [rec(24, 0, 1)])
        # silence for weeks, then traffic resumes on day 30
        service.ingest_hour(30 * 24, [rec(30 * 24, 1, 1)])
        assert service.trained_days == ()
        assert not service.ready

    def test_retrain_count_tracks_day_rollovers(self, service):
        assert service.retrain_count == 0
        for hour in range(0, 72):
            service.ingest_hour(hour, [])
        assert service.retrain_count == 3      # days 0, 1, 2 began

    def test_trained_days_sorted_and_exclude_current(self, service):
        for day in range(4):
            service.ingest_hour(day * 24, [rec(day * 24, 0, 1)])
        assert service.trained_days == tuple(sorted(service.trained_days))
        assert 3 not in service.trained_days   # current day never trains


class TestManualRetrain:
    def test_retrain_between_boundaries_rebuilds_the_same_suite(
            self, service):
        for day in range(5):
            for link in (0, 1):
                service.ingest_hour(
                    day * 24, [rec(day * 24, link, 1, 10.0 + link)])
        before = service.predict(ctx(1))
        counts = service.model("Hist_AP").bytes_for(ctx(1))
        served, count = service.model("Hist_AP"), service.retrain_count
        service.retrain()
        assert service.retrain_count == count + 1
        assert service.model("Hist_AP") is not served  # a fresh build
        assert service.predict(ctx(1)) == before
        assert service.model("Hist_AP").bytes_for(ctx(1)) == counts


class TestBatchedQueries:
    def _train(self, service):
        service.ingest_hour(0, [rec(0, 0, 1, 100.0), rec(0, 1, 1, 30.0),
                                rec(0, 0, 2, 50.0), rec(0, 2, 3, 10.0)])
        service.ingest_hour(24, [])

    def test_predict_batch_matches_predict(self, service):
        self._train(service)
        contexts = [ctx(1), ctx(2), ctx(3), ctx(1), ctx(99)]
        batch = service.predict_batch(contexts)
        assert batch == [service.predict(c) for c in contexts]

    def test_predict_batch_with_prior(self, service):
        self._train(service)
        batch = service.predict_batch([ctx(1), ctx(1)],
                                      unavailable=frozenset({0}))
        assert batch[0] == batch[1]
        assert all(p.link_id != 0 for p in batch[0])

    def test_what_if_matches_per_flow_reference(self, service):
        self._train(service)
        flows = [(ctx(1), 1000.0), (ctx(2), 500.0), (ctx(3), 250.0),
                 (ctx(1), 125.0)]
        withdrawn = frozenset({0})
        batched = service.what_if(flows, withdrawn)
        reference = per_flow(service, flows, withdrawn)
        assert set(batched) == set(reference)
        for link, bytes_ in reference.items():
            assert batched[link] == pytest.approx(bytes_)

    def test_what_if_empty_flows(self, service):
        self._train(service)
        assert service.what_if([], frozenset({0})) == {}

    def test_what_if_unplaceable_bytes_under_minus_one(self, wan):
        service = TipsyService(wan)
        service.ingest_hour(0, [rec(0, 0, 9, 70.0), rec(0, 1, 8, 25.0)])
        service.ingest_hour(24, [])
        spill = service.what_if(
            [(ctx(9), 100.0), (ctx(9), 11.0), (ctx(8), 5.0)],
            withdrawn=frozenset(wan.link_ids))
        assert spill == {-1: 116.0}
        assert per_flow(
            service, [(ctx(9), 100.0), (ctx(9), 11.0), (ctx(8), 5.0)],
            frozenset(wan.link_ids)) == {-1: 116.0}


class TestPredictionMemo:
    def _train(self, service):
        service.ingest_hour(0, [rec(0, 0, 1, 100.0), rec(0, 1, 1, 30.0)])
        service.ingest_hour(24, [])

    def test_repeat_queries_hit_memo(self, service):
        self._train(service)
        service.predict(ctx(1))
        stats = service.cache_stats()
        service.predict(ctx(1))
        after = service.cache_stats()
        assert after["memo_hits"] == stats["memo_hits"] + 1
        assert after["memo_misses"] == stats["memo_misses"]

    def test_retrain_invalidates_memo(self, service):
        self._train(service)
        service.predict(ctx(1))
        assert service.cache_stats()["memo_entries"] == 1
        service.ingest_hour(48, [])    # day rollover -> retrain
        assert service.cache_stats()["memo_entries"] == 0

    def test_memo_respects_bound(self, wan):
        service = TipsyService(
            wan, ServiceConfig(training_window_days=3, memo_size=2))
        records = [rec(0, 0, prefix, 10.0) for prefix in range(5)]
        service.ingest_hour(0, records)
        service.ingest_hour(24, [])
        for prefix in range(5):
            service.predict(ctx(prefix))
        stats = service.cache_stats()
        assert stats["memo_entries"] == 2
        assert stats["memo_evictions"] == 3

    def test_distinct_priors_memoized_separately(self, service):
        self._train(service)
        a = service.predict(ctx(1), unavailable=frozenset({0}))
        b = service.predict(ctx(1), unavailable=frozenset({1}))
        assert a != b

    def test_mutable_set_prior_accepted(self, service):
        # callers (the CMS) naturally build plain sets; the memo key must
        # not choke on them
        self._train(service)
        assert (service.predict(ctx(1), unavailable={0})
                == service.predict(ctx(1), unavailable=frozenset({0})))
        flows = [(ctx(1), 50.0)]
        assert (service.what_if(flows, withdrawn={0})
                == per_flow(service, flows, {0}))
        batch = service.predict_batch([ctx(1)], unavailable={0})
        assert batch[0] == service.predict(ctx(1), unavailable=frozenset({0}))

    def test_counters_outlive_the_suite_they_counted(self, service):
        self._train(service)
        service.predict(ctx(1))
        service.predict(ctx(1))
        before = service.cache_stats()
        service.ingest_hour(48, [])    # retrain publishes a fresh memo
        after = service.cache_stats()
        assert after["memo_entries"] == 0
        assert (after["memo_hits"], after["memo_misses"]) == (
            before["memo_hits"], before["memo_misses"]) == (1, 1)

    def test_memo_size_zero_means_no_memo(self, wan):
        service = TipsyService(
            wan, ServiceConfig(training_window_days=3, memo_size=0))
        self._train(service)
        assert service.predict(ctx(1)) == service.predict(ctx(1))
        stats = service.cache_stats()
        assert stats["memo_entries"] == 0
        assert (stats["memo_hits"], stats["memo_misses"]) == (0, 2)


class SpyModel(IngressModel):
    """Counts what a query costs the model it wraps: every context it is
    asked to answer, and every group key it computes."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.predicted = []
        self.keyed = 0

    def answers(self, contexts, k, prior=NO_LINKS):
        self.predicted.extend(contexts)
        return self.inner.answers(contexts, k, prior)

    def group_key(self, context):
        self.keyed += 1
        return self.inner.group_key(context)


class TestReadPathCounts:
    """What a read costs, in calls: counts repeat exactly where timings
    do not.  A flow asked again under the same suite and shape reaches
    no model; a cold batch predicts each distinct group key once."""

    #: prefixes 1 and 2 share an (AS, location) group; 99 is unknown
    BATCH = [ctx(1), ctx(2), ctx(1), ctx(3), ctx(99), ctx(2)]

    @pytest.fixture()
    def spied(self, service):
        service.ingest_hour(0, [rec(0, 0, 1, 100.0), rec(0, 1, 1, 30.0),
                                rec(0, 0, 2, 50.0), rec(0, 2, 3, 10.0)])
        service.ingest_hour(24, [])
        models = service._published.models
        spies = {}
        for role in ("primary_model", "withdrawal_model"):
            name = getattr(service.config, role)
            spies[role] = models[name] = SpyModel(models[name])
        return service, spies["primary_model"], spies["withdrawal_model"]

    @staticmethod
    def _asked(service):
        stats = service.cache_stats()
        return stats["memo_hits"] + stats["memo_misses"]

    def test_cold_batch_predicts_each_distinct_group_once(self, spied):
        service, primary, withdrawal = spied
        plain = service.predict_batch(self.BATCH)
        # AP/AL/A keys on every field: four distinct contexts, four groups
        assert primary.predicted == [ctx(1), ctx(2), ctx(3), ctx(99)]
        assert primary.keyed == 4
        constrained = service.predict_batch(self.BATCH, unavailable={0})
        # AL+G keys on (AS, location, destination): one group for all
        assert withdrawal.predicted == [ctx(1)] and withdrawal.keyed == 4
        assert len(set(map(tuple, constrained))) == 1
        assert self._asked(service) == 2 * len(self.BATCH)
        assert service.cache_stats()["memo_misses"] == 2 * len(self.BATCH)
        assert plain == [primary.inner.predict(c, 3) for c in self.BATCH]

    def test_repeated_batch_reaches_no_model(self, spied):
        service, primary, withdrawal = spied
        first = (service.predict_batch(self.BATCH),
                 service.predict_batch(self.BATCH, 2, {0}))
        for spy in (primary, withdrawal):
            spy.predicted.clear()
            spy.keyed = 0
        misses = service.cache_stats()["memo_misses"]
        asked = self._asked(service)
        for _ in range(3):
            assert (service.predict_batch(self.BATCH),
                    service.predict_batch(self.BATCH[::-1], 2, {0})[::-1],
                    ) == first
            assert service.predict(ctx(3)) == first[0][3]
        assert primary.predicted == withdrawal.predicted == []
        assert primary.keyed == withdrawal.keyed == 0
        assert service.cache_stats()["memo_misses"] == misses
        assert self._asked(service) == asked + 3 * (2 * len(self.BATCH) + 1)

    def test_partly_warm_batch_predicts_only_what_is_new(self, spied):
        service, primary, _ = spied
        service.predict_batch(self.BATCH[:3])
        primary.predicted.clear()
        assert service.predict_batch(self.BATCH) == [
            primary.inner.predict(c, 3) for c in self.BATCH]
        assert primary.predicted == [ctx(3), ctx(99)]

    def test_repeated_what_if_predicts_nothing(self, spied):
        service, _, withdrawal = spied
        flows = [(c, 10.0 + i) for i, c in enumerate(self.BATCH)]
        first = service.what_if(flows, {0})
        # one group: one prediction; every flow keyed once to sum its
        # group's bytes, the group's context once more on the miss
        assert withdrawal.predicted == [ctx(1)]
        assert withdrawal.keyed == len(flows) + 1
        assert first == per_flow(service, flows, {0})
        withdrawal.predicted.clear()
        withdrawal.keyed = 0
        asked = self._asked(service)
        assert service.what_if(flows, {0}) == first
        assert withdrawal.predicted == []
        assert withdrawal.keyed == len(flows)  # the byte sums, no more
        assert self._asked(service) == asked + 1  # one group asked

    def test_a_retrain_forgets_every_answer(self, spied):
        service, primary, _ = spied
        service.predict_batch(self.BATCH)
        service.ingest_hour(48, [])  # publishes fresh, unspied models
        assert service.cache_stats()["memo_entries"] == 0
        assert service.predict_batch(self.BATCH) == [
            service.model(service.config.primary_model).predict(c, 3)
            for c in self.BATCH]
        assert len(primary.predicted) == 4  # nothing new since the retrain


class ReadSpy(IngressModel):
    """Records every context whose ranking is read from the model it
    wraps, one context at a time or in a batch."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.read = []

    def answers(self, contexts, k, prior=NO_LINKS):
        self.read.extend(contexts)
        return self.inner.answers(contexts, k, prior)

    def predict(self, context, k, unavailable=NO_LINKS):
        self.read.append(context)
        return self.inner.predict(context, k, unavailable)

    def group_key(self, context):
        return self.inner.group_key(context)


class TestCountedReadWork:
    """A memo hit is one memo look-up and no model call; a partly warm
    batch asks the memo about each of its contexts once; AL+G reads each
    distinct group's base ranking once, even for a row short of k."""

    BATCH = TestReadPathCounts.BATCH
    FLOWS = [(c, 10.0 + i) for i, c in enumerate(BATCH)]

    @pytest.fixture()
    def trained(self, service):
        service.ingest_hour(0, [rec(0, 0, 1, 100.0), rec(0, 1, 1, 30.0),
                                rec(0, 0, 2, 50.0), rec(0, 2, 3, 10.0)])
        service.ingest_hour(24, [])
        return service

    @pytest.fixture()
    def lookups(self, monkeypatch):
        """The batch length of every ``AnswerMemo.lookup``."""
        calls = []
        lookup = AnswerMemo.lookup

        def counted(memo, shape, keys):
            calls.append(len(keys))
            return lookup(memo, shape, keys)

        monkeypatch.setattr(AnswerMemo, "lookup", counted)
        return calls

    def test_a_memo_hit_is_one_lookup_and_no_model_call(
            self, trained, lookups, monkeypatch):
        first = (trained.predict_batch(self.BATCH),
                 trained.predict_batch(self.BATCH, 2, {0}),
                 trained.what_if(self.FLOWS, {0}))
        called = []
        for cls in (HistoricalModel, GeoAugmentedModel, SequentialEnsemble):
            for method in ("answers", "predict", "what_if", "group_key",
                           "size"):
                monkeypatch.setattr(cls, method, lambda *args, _at=(
                    cls.__name__, method), **kwargs: called.append(_at))
        for ask, calls in (
                (lambda: trained.predict_batch(self.BATCH), [6]),
                (lambda: trained.predict_batch(self.BATCH, 2, {0}), [6]),
                # one AL group among the six flows
                (lambda: trained.what_if(self.FLOWS, {0}), [1])):
            lookups.clear()
            assert ask() in first
            assert lookups == calls
        assert called == []

    def test_a_partly_warm_batch_asks_each_context_once(self, trained):
        trained.predict_batch(self.BATCH[:3])
        before = trained.memo_stats()
        assert trained.predict_batch(self.BATCH) == [
            trained.model(trained.config.primary_model).predict(c, 3)
            for c in self.BATCH]
        after = trained.memo_stats()
        assert (after.hits + after.misses) - (before.hits + before.misses) \
            == len(self.BATCH)
        # ctx(1) and ctx(2) were held; ctx(3) and ctx(99) were not
        assert (after.hits - before.hits, after.misses - before.misses) \
            == (4, 2)

    def test_al_g_reads_each_base_ranking_once(self, trained):
        name = trained.config.withdrawal_model
        plain = trained.model(name)
        spy = ReadSpy(plain.base)
        completion = GeoAugmentedModel(spy, plain.wan, name=name)
        # the one AL group ranks links 0, 1, 2: with 0 down, two are
        # left of k=3, so the row is completed from its anchor, link 0
        for context in (ctx(1), ctx(3), ctx(99)):
            spy.read.clear()
            assert completion.predict(context, 3, frozenset({0})) == (
                plain.predict(context, 3, frozenset({0})))
            assert spy.read == [context]
        spy.read.clear()
        trained._published.models[name] = completion
        trained.predict_batch(self.BATCH, 3, {0})
        trained.what_if(self.FLOWS, {1})
        # one distinct group, one read per question
        assert spy.read == [ctx(1), ctx(1)]


SERVED_MODELS = ("Hist_AP", "Hist_AL", "Hist_A", "Hist_AL+G", "Hist_AP/AL/A")


@pytest.fixture(scope="module")
def scenario_week(small_scenario):
    """Three days of aggregated hours plus the flows of hour 72."""
    sc = small_scenario
    hours = list(sc.aggregated_hours(0, 3 * 24))
    sample = sc.traffic_entries_for(next(iter(sc.stream(3 * 24, 3 * 24 + 1))))
    flows = [(sample.contexts[row], bytes_)
             for row, bytes_ in zip(sample.flow_rows.tolist(),
                                    sample.bytes.tolist())]
    return sc, hours, flows


@pytest.fixture(scope="module")
def trained_week(scenario_week):
    sc, hours, _flows = scenario_week
    service = TipsyService(sc.wan, ServiceConfig(training_window_days=5))
    for columns in hours:
        service.ingest_hour(columns.hour, columns)
    service.ingest_hour(3 * 24, [])
    assert service.ready
    return service


class TestModelWhatIf:
    """Every served model answers ``what_if`` itself, the per-flow
    reference's answer to rounding — and the withdrawal model (AL+G,
    the one the service asks) bit for bit the service's answer."""

    @pytest.mark.parametrize("name", SERVED_MODELS)
    def test_model_what_if_is_the_service_what_if(self, scenario_week,
                                                   trained_week, name):
        sc, _hours, flows = scenario_week
        service = trained_week
        model = service.model(name)
        k = service.config.prediction_k
        links = sorted(sc.wan.link_ids)
        for withdrawn in (frozenset(), frozenset(links[:3]),
                          frozenset(links)):
            spill = model.what_if(flows, withdrawn, k)
            if name == service.config.withdrawal_model:
                assert spill == service.what_if(flows, withdrawn, k)
            reference = what_if_per_flow(model, flows, withdrawn, k)
            assert set(spill) == set(reference)
            for link, bytes_ in reference.items():
                assert spill[link] == pytest.approx(bytes_, rel=1e-12)
        assert model.what_if(flows, frozenset(links), k) == {
            -1: pytest.approx(sum(bytes_ for _c, bytes_ in flows))}
        assert model.what_if([], frozenset(links[:1]), k) == {}


class TestFixedModelRoles:
    """The model roles are constants of the service, not settings."""

    @pytest.mark.parametrize("role", ["primary_model", "withdrawal_model"])
    def test_config_refuses_a_role(self, role):
        with pytest.raises(TypeError):
            ServiceConfig(**{role: "Hist_AP"})

    def test_roles_and_the_withdrawal_grain(self):
        config = ServiceConfig()
        assert (config.primary_model, config.withdrawal_model) == (
            "Hist_AP/AL/A", "Hist_AL+G")
        assert config.withdrawal_grain is FEATURES_AL
        assert [f.name for f in dataclasses.fields(config)] == [
            "training_window_days", "prediction_k", "memo_size"]

    @pytest.mark.parametrize("field", ["training_window_days",
                                       "prediction_k"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_config_refuses_fewer_than_one(self, field, value):
        """A zero window never trains and a negative one fails every
        hour; a zero k answers nothing."""
        with pytest.raises(ValueError, match="at least 1"):
            ServiceConfig(**{field: value})

    @pytest.mark.parametrize("stored", [
        {"withdrawal_model": "Hist_AP"},
        {"primary_model": "Hist_A"},
    ])
    def test_load_refuses_another_model_in_a_role(self, stored):
        with pytest.raises(ValueError, match="is not served"):
            ServiceConfig.load(stored)


class PerPrefixGeo(GeoAugmentedModel):
    """AL+G keyed per source prefix, more finely than its base's AL
    key, and recording every context it predicts."""

    def __init__(self, base, wan):
        super().__init__(base, wan, name="Hist_AL+G")
        self.predicted = []

    def answers(self, contexts, k, prior=NO_LINKS):
        self.predicted.extend(contexts)
        return super().answers(contexts, k, prior)

    def group_key(self, context):
        return (context.src_prefix, *super().group_key(context))


class TestOverriddenGroupKey:
    """AL+G reaches its base's key without a method frame; a subclass
    that overrides ``group_key`` is still grouped by its own key."""

    @pytest.fixture()
    def trained(self, service):
        service.ingest_hour(0, [rec(0, 0, 1, 100.0), rec(0, 1, 2, 30.0)])
        service.ingest_hour(24, [])
        return service

    def test_plain_al_g_groups_by_the_base_key_itself(self, trained):
        geo = trained.model(trained.config.withdrawal_model)
        assert geo.group_key is geo.base.group_key
        assert geo.group_key(ctx(1)) == geo.group_key(ctx(2))
        # the grain the sharded daemon groups what_if flows at
        assert geo.group_key(ctx(1)) == ServiceConfig.withdrawal_grain.key(
            ctx(1))

    def test_subclass_key_groups_what_if_and_predict_batch(self, trained):
        name = trained.config.withdrawal_model
        plain = trained.model(name)
        finer = trained._published.models[name] = PerPrefixGeo(
            plain.base, plain.wan)
        flows = [(ctx(1), 10.0), (ctx(2), 20.0), (ctx(1), 5.0)]
        # the AL key alone would ask once, for prefix 1 only
        finer.what_if(flows, {0}, 3)
        assert finer.predicted == [ctx(1), ctx(2)]
        for ask in (lambda: trained.predict_batch(
                        [ctx(1), ctx(2), ctx(1)], unavailable={1}),
                    lambda: trained.what_if(flows, {2})):
            finer.predicted.clear()
            ask()
            assert finer.predicted == [ctx(1), ctx(2)]
