"""``repro obs`` — run an instrumented example and export its metrics.

The subcommand answers "what does the observability layer see?" without
requiring a long-lived deployment: it enables instrumentation, drives a
small end-to-end workload (build a synthetic world, ingest a few days
of telemetry into :class:`~repro.core.service.TipsyService`, serve a
batch of predictions and a what-if query), and prints the resulting
metrics snapshot in the chosen format — ``text`` for terminals,
``json`` for tooling, ``prometheus`` for scrape-style consumers.

``--trace-out FILE`` additionally dumps the run's span tree as JSON,
which is the quickest way to see where the wall-clock time of a daily
retrain + serving loop actually goes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TextIO

from . import runtime as obs
from .export import FORMATS, render_json, render_prometheus, render_text
from .metrics import MetricsSnapshot


def add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--days", type=int, default=3,
                        help="days of telemetry to ingest (default 3)")
    parser.add_argument("--format", choices=FORMATS, default="text",
                        help="snapshot format (default: text)")
    parser.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="write the snapshot to FILE instead of stdout")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="also dump the span tree as JSON to FILE")


def run_example_workload(seed: int, days: int) -> MetricsSnapshot:
    """Drive the instrumented daily retrain + serving loop once.

    Returns the metrics snapshot of everything the run recorded.
    Instrumentation must already be enabled (the CLI enables it; tests
    may enable with an injected clock first).
    """
    # deferred imports: the obs package must stay importable without
    # pulling the whole world in (export/runtime have no repro deps)
    from ..core.service import ServiceConfig, TipsyService
    from ..experiments.scenario import Scenario, ScenarioParams

    if days < 2:
        raise SystemExit("repro obs: --days must be at least 2")
    with obs.timed("obs.example_run"):
        with obs.timed("obs.build_world"):
            scenario = Scenario(ScenarioParams.small(
                seed=seed, horizon_days=days))
        service = TipsyService(scenario.wan, ServiceConfig(
            training_window_days=max(1, days - 1)))
        with obs.timed("obs.ingest"):
            for columns in scenario.aggregated_hours(0, days * 24):
                service.ingest_hour(columns.hour, columns)
        with obs.timed("obs.serve"):
            contexts = scenario.flow_contexts
            service.predict_batch(contexts)
            top = service.predict(contexts[0], k=1)
            withdrawn = frozenset({top[0].link_id}) if top else frozenset()
            flows = [(context, 1000.0) for context in contexts[:256]]
            service.what_if(flows, withdrawn)
        scenario.simulator.export_gauges()
        service.export_gauges()
    return obs.snapshot()


def render_snapshot(snapshot: MetricsSnapshot, fmt: str) -> str:
    if fmt == "json":
        return render_json(snapshot) + "\n"
    if fmt == "prometheus":
        return render_prometheus(snapshot)
    return render_text(snapshot) + "\n"


def run_obs(args: argparse.Namespace) -> int:
    obs.enable(fresh=True)
    snapshot = run_example_workload(seed=args.seed, days=args.days)
    rendered = render_snapshot(snapshot, args.format)
    stream: TextIO
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(rendered)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(rendered)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as stream:
            json.dump(obs.tracer().to_json(), stream, indent=2)
            stream.write("\n")
        print(f"wrote trace to {args.trace_out}")
    return 0
