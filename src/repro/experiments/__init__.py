"""Scenarios and the paper's evaluation harness.

Ties the world together: :class:`~repro.experiments.scenario.Scenario`
builds a complete synthetic universe (topology + BGP + traffic +
outage schedule) from one seed, streams its hourly telemetry, and the
:class:`~repro.experiments.runner.EvaluationRunner` reproduces the
paper's §5 evaluation — Tables 4–7, the figures, and the §2 cascading
incident replay — on top of exactly the pipeline and models that the
online service uses.
"""

from .scenario import HourColumns, Scenario, ScenarioParams
from .runner import (
    AccuracyBlock,
    EvaluationResult,
    EvaluationRunner,
    WindowSpec,
)
from .incident import (
    IncidentReport,
    IncidentWorld,
    build_incident_world,
    replay_incident,
)
from .incident_east_asia import (
    EastAsiaReport,
    build_east_asia_world,
    replay_east_asia,
)
from . import figures, paper, tables
from .report import ReportOptions, build_report

__all__ = [
    "HourColumns", "Scenario", "ScenarioParams",
    "AccuracyBlock", "EvaluationResult", "EvaluationRunner", "WindowSpec",
    "IncidentReport", "IncidentWorld", "build_incident_world",
    "replay_incident",
    "EastAsiaReport", "build_east_asia_world",
    "replay_east_asia",
    "figures", "paper", "tables",
    "ReportOptions", "build_report",
]
