"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``evaluate`` — build a synthetic world and run the paper's §5
  evaluation (Tables 4-7) at a chosen size.
* ``incident`` — replay the §2 cascading-congestion incident, blind and
  TIPSY-guided.
* ``risk`` — run Appendix C's Algorithm 1 and print the links-at-risk
  table.
* ``lint`` — run the determinism & concurrency static checks
  (``docs/static-analysis.md``).
* ``obs`` — run an instrumented example workload and export its metrics
  snapshot (text / JSON / Prometheus) and span trace
  (``docs/observability.md``).
* ``snapshot`` — save, load (with byte-identical verification) and
  inspect persistent service state snapshots (``docs/storage.md``).
* ``serve`` — run the long-running sharded serving daemon over a
  telemetry stream, or inspect one of its checkpoints
  (``docs/operations.md``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from .experiments import Scenario


class UsageError(Exception):
    """A command line the world cannot serve: reported, exit status 2."""


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", choices=("small", "medium", "full"),
                        default="small", help="scenario scale")
    parser.add_argument("--seed", type=int, default=0)


def _build_scenario(args: argparse.Namespace) -> "Scenario":
    from .experiments import Scenario, ScenarioParams

    if args.size == "small":
        params = ScenarioParams.small(seed=args.seed, horizon_days=28)
    elif args.size == "medium":
        params = ScenarioParams.medium(seed=args.seed)
    else:
        params = ScenarioParams(seed=args.seed)
    days = args.train_days + args.test_days
    if days > params.horizon_days:
        raise UsageError(f"--train-days + --test-days = {days} days is past the "
                         f"{params.horizon_days}-day horizon of the {args.size} world")
    return Scenario(params)


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .experiments import EvaluationRunner, WindowSpec, paper, tables

    t0 = time.time()
    scenario = _build_scenario(args)
    print(f"world: {scenario.wan.summary()}, {len(scenario.traffic)} flows, "
          f"{len(scenario.outage_schedule)} outages "
          f"(built in {time.time() - t0:.1f}s)")
    runner = EvaluationRunner(scenario)
    window = WindowSpec(train_start_day=0, train_days=args.train_days,
                        test_days=args.test_days)
    t0 = time.time()
    result = runner.run(window, include_naive_bayes=args.naive_bayes)
    print(f"evaluated in {time.time() - t0:.1f}s; "
          f"{result.stats['train_tuples']:.0f} training tuples, "
          f"unseen-outage byte fraction "
          f"{result.stats['unseen_fraction']:.0%}\n")
    order = tables.NB_MODEL_ORDER if args.naive_bayes else tables.PAPER_MODEL_ORDER
    references = {
        "Table 4 — overall": paper.PAPER_TABLE4,
        "Table 5 — all outages": paper.PAPER_TABLE5,
        "Table 6 — seen outages": paper.PAPER_TABLE6,
        "Table 7 — unseen outages": paper.PAPER_TABLE7,
    }
    for title, block in (
            ("Table 4 — overall", result.overall),
            ("Table 5 — all outages", result.outages_all),
            ("Table 6 — seen outages", result.outages_seen),
            ("Table 7 — unseen outages", result.outages_unseen)):
        rows = tables.accuracy_rows(block, order)
        print(tables.format_block(title, rows, tables.ACCURACY_HEADER))
        if args.compare:
            print()
            print(paper.format_comparison(block.rows, references[title],
                                          title))
        print()
    return 0


def cmd_incident(args: argparse.Namespace) -> int:
    from .experiments import build_incident_world, replay_incident

    world = build_incident_world(seed=args.seed)
    names = {link: name for name, link in world.links.items()}
    for with_tipsy in (False, True):
        report = replay_incident(world, with_tipsy=with_tipsy)
        mode = "TIPSY-guided" if with_tipsy else "blind"
        print(f"== {mode} ==")
        for action in report.actions:
            label = names.get(action.link_id,
                              world.wan.link(action.link_id).name)
            print(f"  t+{action.sample_index - world.surge_start_hour:>2d}h "
                  f"{action.kind:<21s} {label}")
        print(f"  rounds={report.withdrawal_rounds} "
              f"congested-link-hours={report.congested_link_hours}\n")
    return 0


def cmd_risk(args: argparse.Namespace) -> int:
    from .cms import RiskAnalyzer
    from .experiments import EvaluationRunner, tables

    scenario = _build_scenario(args)
    runner = EvaluationRunner(scenario)
    train_hours = args.train_days * 24
    counts = runner.feed_window(0, train_hours).counts
    models = {m.name: m for m in runner.build_models(counts)}
    analyzer = RiskAnalyzer(scenario.wan, models["Hist_AL"], threshold=0.70)

    samples = (scenario.traffic_entries_for(cols) for cols in scenario.stream(
        train_hours, train_hours + args.test_days * 24))
    findings = analyzer.analyze(samples, min_extra_hours=2)
    rows = tables.risk_rows(findings, scenario.wan, limit=args.limit)
    print(tables.format_block(
        f"Links at risk ({len(findings)} findings)", rows,
        tables.RISK_HEADER))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .experiments import ReportOptions, WindowSpec, build_report

    scenario = _build_scenario(args)
    options = ReportOptions(
        window=WindowSpec(train_start_day=0, train_days=args.train_days,
                          test_days=args.test_days),
        include_naive_bayes=args.naive_bayes,
    )
    text = build_report(scenario, options)
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.cli import run_lint

    return run_lint(args)


def cmd_obs(args: argparse.Namespace) -> int:
    from .obs.cli import run_obs

    return run_obs(args)


def cmd_snapshot(args: argparse.Namespace) -> int:
    from .store.cli import run_snapshot

    return run_snapshot(args)


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve.cli import run_serve

    return run_serve(args)


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser (also introspected by the docs checker)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TIPSY reproduction — predict where traffic will "
                    "ingress a WAN (SIGCOMM 2022)")
    sub = parser.add_subparsers(dest="command", required=True)
    from .store.cli import at_least_one

    p_eval = sub.add_parser("evaluate", help="run the §5 evaluation")
    _add_world_args(p_eval)
    p_eval.add_argument("--train-days", type=at_least_one, default=21)
    p_eval.add_argument("--test-days", type=at_least_one, default=7)
    p_eval.add_argument("--naive-bayes", action="store_true",
                        help="include the Appendix A Naive Bayes models")
    p_eval.add_argument("--compare", action="store_true",
                        help="print the paper's numbers alongside")
    p_eval.set_defaults(func=cmd_evaluate)

    p_inc = sub.add_parser("incident", help="replay the §2 incident")
    p_inc.add_argument("--seed", type=int, default=0)
    p_inc.set_defaults(func=cmd_incident)

    p_risk = sub.add_parser("risk", help="links-at-risk analysis (App. C)")
    _add_world_args(p_risk)
    p_risk.add_argument("--train-days", type=at_least_one, default=10)
    p_risk.add_argument("--test-days", type=at_least_one, default=3)
    p_risk.add_argument("--limit", type=at_least_one, default=12)
    p_risk.set_defaults(func=cmd_risk)

    p_report = sub.add_parser(
        "report", help="write a full markdown evaluation report")
    _add_world_args(p_report)
    p_report.add_argument("--train-days", type=at_least_one, default=21)
    p_report.add_argument("--test-days", type=at_least_one, default=7)
    p_report.add_argument("--naive-bayes", action="store_true")
    p_report.add_argument("-o", "--output", default="report.md")
    p_report.set_defaults(func=cmd_report)

    p_lint = sub.add_parser(
        "lint", help="determinism & concurrency static checks")
    from .analysis.cli import add_lint_arguments
    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    p_obs = sub.add_parser(
        "obs", help="run an instrumented example and export its metrics")
    from .obs.cli import add_obs_arguments
    add_obs_arguments(p_obs)
    p_obs.set_defaults(func=cmd_obs)

    p_snap = sub.add_parser(
        "snapshot", help="save, load and inspect service state snapshots")
    from .store.cli import add_snapshot_arguments
    add_snapshot_arguments(p_snap)
    p_snap.set_defaults(func=cmd_snapshot)

    p_serve = sub.add_parser(
        "serve", help="run the sharded serving daemon / inspect checkpoints")
    from .serve.cli import add_serve_arguments
    add_serve_arguments(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
