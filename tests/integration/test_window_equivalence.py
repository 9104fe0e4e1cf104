"""Equivalence gate for the rolling-window rebuild.

``TipsyService`` rebuilds its model suite at every day boundary by
folding the window's per-day grain columns.  This test drives a
simulated multi-week stream — long enough for the window to evict many
days — and proves two things at several checkpoints, bit for bit
(same counts in the same order, same rankings, same scores):

* *history independence* — a service that has been running for weeks
  serves exactly the models of a fresh service fed only the days still
  in its window, day gaps included: nothing of an evicted day survives;
* *online equals offline* — those models are the ones the offline
  trainer builds record by record from the same days
  (``CountsAccumulator.consume_hour`` -> ``project`` ->
  ``DictHistoricalModel.observe_aggregate`` in day order ->
  ``finalize``; the record-path and dict oracles in
  ``tests/core/counts_oracle.py`` and ``tests/core/historical_oracle.py``),
  the independent reference for the columnar fold, sharing no code with
  it.

Byte values are deliberately non-integral and span 10 orders of
magnitude, so a sum taken in any other order or grouping rounds
differently and fails the gate.
"""

import numpy as np
import pytest

from repro.core.service import ServiceConfig, TipsyService
from repro.pipeline import AggRecord, FlowContext
from repro.topology import (
    CloudWAN,
    DestPrefix,
    MetroCatalog,
    PeeringLink,
    Region,
)
from tests.core.counts_oracle import CountsAccumulator
from tests.core.historical_oracle import DictHistoricalModel

BASE_MODELS = ("Hist_AP", "Hist_AL", "Hist_A")
N_DAYS = 30
WINDOW_DAYS = 7
CHECKPOINT_DAYS = (1, 5, 8, 13, 21, 29)   # filling, full, long-after


@pytest.fixture(scope="module")
def wan():
    metros = MetroCatalog()
    links = [PeeringLink(i, 100 + i % 3, m, f"{m}-er1", 100.0)
             for i, m in enumerate(("iad", "nyc", "atl", "sea", "lax"))]
    return CloudWAN(8075, links, [Region("r", "iad")],
                    [DestPrefix(0, "100.64.0.0/24", "r", "web")], metros)


def synthetic_hours(n_days, seed=20260806):
    """Per-hour AggRecord batches with awkward float byte counts."""
    rng = np.random.default_rng(seed)
    hours = []
    for hour in range(n_days * 24):
        n = int(rng.integers(5, 30))
        links = rng.integers(0, 5, size=n)
        asns = rng.integers(1, 6, size=n)
        prefixes = rng.integers(1, 40, size=n)
        locs = rng.integers(0, 4, size=n)
        regions = rng.integers(0, 3, size=n)
        services = rng.integers(0, 2, size=n)
        # mix tiny and huge magnitudes so any re-ordered sum visibly drifts
        bytes_ = np.exp(rng.uniform(-3.0, 21.0, size=n))
        hours.append([
            AggRecord(hour, int(links[i]), int(asns[i]), int(prefixes[i]),
                      int(locs[i]), int(regions[i]), int(services[i]),
                      float(bytes_[i]))
            for i in range(n)
        ])
    return hours


def assert_models_identical(left, right, name):
    got, want = left.to_arrays(), right.to_arrays()
    assert list(got) == list(want), name
    for column in want:
        assert got[column].dtype == want[column].dtype, (name, column)
        assert got[column].tobytes() == want[column].tobytes(), (name, column)
    # identical rankings: same order, same link ids, same scores
    assert left.rankings() == right.rankings(), name


def context_of(feature_set):
    """A flow context carrying a feature key (other fields 0)."""
    def build(key):
        fields = dict(zip(feature_set.fields, key))
        return FlowContext._make(fields.get(name, 0)
                                 for name in FlowContext._fields)
    return build


def fresh_service_over_window(service, fed):
    """A new service fed only the days ``service`` still holds."""
    fresh = TipsyService(service.wan, service.config)
    for hour, records in fed:
        if hour // 24 in service._days:
            fresh.ingest_hour(hour, records)
    return fresh


def offline_models(fed, trained_days):
    """The base suite trained record by record, day by day."""
    models = [DictHistoricalModel(fs) for fs in TipsyService._GRAINS]
    for day in trained_days:
        counts = CountsAccumulator()
        for hour, records in fed:
            if hour // 24 == day:
                counts.consume_hour(hour, records)
        for model in models:
            for key, links in counts.project(model.feature_set).items():
                for link_id, bytes_ in links.items():
                    model.observe_aggregate(key, link_id, bytes_)
    for model in models:
        model.finalize()
    return models


def assert_window_is_all_that_matters(service, fed):
    fresh = fresh_service_over_window(service, fed)
    assert service.trained_days == fresh.trained_days
    offline = offline_models(fed, service.trained_days)
    for name, batch_model in zip(BASE_MODELS, offline):
        assert_models_identical(service.model(name), fresh.model(name), name)
        assert_models_identical(service.model(name), batch_model, name)
        served = service.model(name)
        assert served.tuples() == batch_model.tuples(), name
        for context in map(context_of(served.feature_set), served.tuples()):
            assert (served.bytes_for(context)
                    == batch_model.bytes_for(context)), name


class TestWindowEquivalence:
    def test_bit_identical_over_multi_week_window(self, wan):
        fed = list(enumerate(synthetic_hours(N_DAYS)))
        service = TipsyService(
            wan, ServiceConfig(training_window_days=WINDOW_DAYS))
        checkpoints = 0
        for index, (hour, records) in enumerate(fed):
            service.ingest_hour(hour, records)
            day, hour_of_day = divmod(hour, 24)
            if day in CHECKPOINT_DAYS and hour_of_day == 23:
                assert_window_is_all_that_matters(service, fed[:index + 1])
                checkpoints += 1
        assert checkpoints == len(CHECKPOINT_DAYS)
        # the window really did roll: early days are long gone
        assert min(service.trained_days) == N_DAYS - 1 - WINDOW_DAYS

    def test_history_independent_across_day_gaps(self, wan):
        """Silent days — fewer than the window, then more — leave no
        trace either: what is served is what the held days train."""
        silent = {5, 6} | set(range(12, 18))
        fed = [(hour, records)
               for hour, records in enumerate(synthetic_hours(22, seed=7))
               if hour // 24 not in silent]
        service = TipsyService(wan, ServiceConfig(training_window_days=4))
        seen = []
        for index, (hour, records) in enumerate(fed):
            service.ingest_hour(hour, records)
            if hour % 24 == 0 and hour // 24 in (7, 8, 18, 21):
                seen.append(service.trained_days)
                assert_window_is_all_that_matters(service, fed[:index + 1])
        assert seen == [(3, 4), (4, 7), (), (18, 19, 20)]
