"""Tier-1 accuracy band: prediction quality cannot move silently.

The equivalence suites prove two paths agree with each other; none of
them would notice both drifting together.  This pins the quantity the
paper reports (§5.1.2, byte-weighted top-k accuracy) on one small world
to the exact floats the pipeline produced before the window's counts
became a columnar table: three days through the production feed
(``Scenario.aggregated_hours`` -> ``ingest_hour``), the fourth day's
streamed traffic scored against what the service predicts for it.

The sums are ``math.fsum`` — correctly rounded whatever the order — so
the pinned values depend on the predictions and the world alone, not on
numpy's reduction strategy.  A change that moves them has changed what
TIPSY predicts, and must say so.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.service import ServiceConfig, TipsyService
from repro.experiments import Scenario, ScenarioParams
from repro.serve import DaemonConfig, ServeDaemon

TRAIN_DAYS = 3
TOP_K = 3
GOLDEN_TOP1 = 0.7717784814309457
GOLDEN_TOP3 = 0.9412259225718799


@pytest.fixture(scope="module")
def scenario():
    return Scenario(ScenarioParams.small(seed=5, horizon_days=TRAIN_DAYS + 1))


def _feed(scenario, target):
    """Days 0..2, plus the hour that closes day 2 and retrains."""
    for columns in scenario.aggregated_hours(0, TRAIN_DAYS * 24 + 1):
        target.ingest_hour(columns.hour, columns)


def _score(scenario, served):
    """Byte-weighted (top-1, top-3) of ``served`` over the test day."""
    table = np.full((len(served), TOP_K), -1, dtype=np.int64)
    for row, answer in enumerate(served):
        for rank, prediction in enumerate(answer[:TOP_K]):
            table[row, rank] = prediction.link_id
    matched1, matched3, total = [], [], []
    for hour in scenario.stream(TRAIN_DAYS * 24, (TRAIN_DAYS + 1) * 24):
        predicted = table[hour.flow_rows]
        hit1 = predicted[:, 0] == hour.link_ids
        hit3 = (predicted == hour.link_ids[:, None]).any(axis=1)
        matched1 += hour.sampled_bytes[hit1].tolist()
        matched3 += hour.sampled_bytes[hit3].tolist()
        total += hour.sampled_bytes.tolist()
    return (math.fsum(matched1) / math.fsum(total),
            math.fsum(matched3) / math.fsum(total))


def test_service_accuracy_is_pinned(scenario):
    service = TipsyService(
        scenario.wan, ServiceConfig(training_window_days=TRAIN_DAYS))
    _feed(scenario, service)
    assert service.trained_days == tuple(range(TRAIN_DAYS))
    served = service.predict_batch(list(scenario.flow_contexts), TOP_K)
    assert _score(scenario, served) == (GOLDEN_TOP1, GOLDEN_TOP3)


def test_sharded_daemon_accuracy_is_pinned(scenario):
    daemon = ServeDaemon(scenario.wan, DaemonConfig(
        n_shards=2, workers="inline",
        service=ServiceConfig(training_window_days=TRAIN_DAYS))).start()
    try:
        _feed(scenario, daemon)
        daemon.drain()
        served = daemon.predict_batch(list(scenario.flow_contexts), TOP_K)
    finally:
        daemon.shutdown()
    assert _score(scenario, served) == (GOLDEN_TOP1, GOLDEN_TOP3)
