"""Shared serving-daemon fixtures.

One session-scoped world bundles the expensive parts: a small scenario,
its pre-expanded hourly telemetry, and an uninterrupted single-process
:class:`TipsyService` fed the same stream — the bit-identity reference
every daemon test compares against.  Tests treat all of it as
read-only and build their own (cheap) shards and daemons.
"""

from __future__ import annotations

from typing import List, NamedTuple

import pytest

from repro.core.service import ServiceConfig, TipsyService
from repro.experiments import Scenario, ScenarioParams
from repro.obs import runtime as obs
from repro.pipeline.records import AggRecords, FlowContext

#: 4 streamed days — enough for several day-boundary retrains and a
#: window eviction — over a 3-day rolling window
HOURS = 96
WINDOW = 3


class ServeWorld(NamedTuple):
    scenario: Scenario
    hourly: List[AggRecords]     # each hour's rows, columns attached
    reference: TipsyService
    contexts: List[FlowContext]
    config: ServiceConfig


@pytest.fixture(autouse=True)
def _obs_isolation():
    """The obs switch is a process global; leave it as found."""
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="session", params=["inline", "process"])
def trained_daemon(request, serve_world):
    """A fully-ingested 3-shard daemon, one per worker mode.

    Session-scoped like the reference service it mirrors: tests only
    query it, and spinning up (and feeding) a daemon per test would
    dominate the suite's runtime.
    """
    from repro.serve import DaemonConfig, ServeDaemon

    daemon = ServeDaemon(serve_world.scenario.wan, DaemonConfig(
        n_shards=3, workers=request.param,
        service=serve_world.config)).start()
    for hour, records in enumerate(serve_world.hourly):
        daemon.ingest_hour(hour, records)
    daemon.drain()
    yield daemon
    daemon.shutdown(drain=False)


@pytest.fixture(scope="session")
def serve_world() -> ServeWorld:
    scenario = Scenario(ScenarioParams.small(seed=3, horizon_days=6))
    hourly = [columns.to_records()
              for columns in scenario.aggregated_hours(0, HOURS)]
    config = ServiceConfig(training_window_days=WINDOW)
    reference = TipsyService(scenario.wan, config)
    for hour, records in enumerate(hourly):
        reference.ingest_hour(hour, records)
    return ServeWorld(scenario=scenario, hourly=hourly,
                      reference=reference,
                      contexts=list(scenario.flow_contexts),
                      config=config)
