"""``repro snapshot`` — save, load and inspect service state snapshots.

The subcommand exercises the persistence boundary end to end without a
long-lived deployment:

* ``save`` builds a synthetic scenario, ingests a window of telemetry
  into :class:`~repro.core.service.TipsyService`, and snapshots the
  service into a :class:`SegmentStore` directory.  The scenario recipe
  (size, seed, days) is recorded in the manifest so a later ``load
  --verify`` can rebuild the exact reference.
* ``load`` restores a service from a snapshot directory and reports
  what survived (days restored/lost).  With
  ``--verify`` it also rebuilds an uninterrupted reference service from
  the recorded recipe and asserts the restored service's predictions
  are byte-identical — the restart guarantee, checked for real.
* ``inspect`` verifies every segment against the manifest (checksum,
  format version) and prints a per-segment status table.

Corrupt or missing segments never abort a ``load``; they surface in the
restore report as lost days, per the store's degrade-and-report
contract (``docs/storage.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional, Tuple

from .segments import SegmentStore

if TYPE_CHECKING:
    from ..core.service import TipsyService
    from ..experiments.scenario import Scenario

ACTIONS = ("save", "load", "inspect")

#: manifest meta keys recording the scenario recipe behind a snapshot
_RECIPE_KEYS = ("scenario_size", "scenario_seed", "scenario_days",
                "scenario_window")


def at_least_one(text: str) -> int:
    """An ``argparse`` type for a count of at least 1 (less is a usage
    error, exit 2); the CLI's window, day, shard and limit flags share
    it."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def add_snapshot_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("action", choices=ACTIONS,
                        help="save a new snapshot, load (and optionally "
                             "verify) one, or inspect segment integrity")
    parser.add_argument("--dir", required=True, metavar="DIR",
                        help="snapshot directory (the SegmentStore root)")
    parser.add_argument("--size", choices=("small", "medium"),
                        default="small",
                        help="scenario scale for `save` (default: small)")
    parser.add_argument("--seed", type=int, default=0,
                        help="scenario seed for `save` (default: 0)")
    parser.add_argument("--days", type=at_least_one, default=9,
                        help="days of telemetry to ingest before "
                             "snapshotting (default: 9)")
    parser.add_argument("--window", type=at_least_one, default=7,
                        help="rolling training window in days (default: 7)")
    parser.add_argument("--verify", action="store_true",
                        help="after `load`, rebuild the uninterrupted "
                             "reference and check predictions are "
                             "byte-identical")


def build_scenario(size: str, seed: int, days: int) -> "Scenario":
    """The world a recipe names (shared with ``repro serve``)."""
    # function-scope import: keeps the store layer free of core deps at
    # module scope (layer contract RA601); the CLI is glue
    from ..experiments.scenario import Scenario, ScenarioParams

    if size == "medium":
        params = ScenarioParams.medium(seed=seed)
    else:
        params = ScenarioParams.small(seed=seed, horizon_days=days)
    if days > params.horizon_days:
        raise SystemExit(
            f"repro: --days {days} exceeds the {size} scenario "
            f"horizon ({params.horizon_days} days)")
    return Scenario(params)


def _ingest(service: "TipsyService", scenario: "Scenario",
            days: int) -> None:
    for columns in scenario.aggregated_hours(0, days * 24):
        service.ingest_hour(columns.hour, columns)


def _recipe_from(store: SegmentStore
                 ) -> Optional[Tuple[str, int, int, int]]:
    try:
        return (store.meta["scenario_size"],
                int(store.meta["scenario_seed"]),
                int(store.meta["scenario_days"]),
                int(store.meta["scenario_window"]))
    except (KeyError, ValueError):
        return None


def _snapshot_save(args: argparse.Namespace) -> int:
    from ..core.service import ServiceConfig, TipsyService

    scenario = build_scenario(args.size, args.seed, args.days)
    config = ServiceConfig(training_window_days=args.window)
    service = TipsyService(scenario.wan, config)
    _ingest(service, scenario, args.days)
    store = service.snapshot(args.dir)
    store.set_meta({
        "scenario_size": args.size,
        "scenario_seed": str(args.seed),
        "scenario_days": str(args.days),
        "scenario_window": str(args.window),
    })
    n_days = sum(1 for i in store.segments() if i.kind == "day_counts")
    print(f"saved {args.dir}: {n_days} day segments, "
          f"{store.total_bytes()} bytes")
    return 0


def _snapshot_load(args: argparse.Namespace) -> int:
    from ..core.service import ServiceConfig, SnapshotError, TipsyService

    probe = SegmentStore(args.dir)
    recipe = _recipe_from(probe)
    if recipe is None:
        # the WAN is topology, not model state: restoring needs the
        # scenario recipe the manifest records at save time
        print("repro snapshot: no scenario recipe in the manifest "
              "(snapshots written by `repro snapshot save` record one)",
              file=sys.stderr)
        return 1
    scenario = build_scenario(*recipe[:3])
    try:
        service = TipsyService.restore(args.dir, wan=scenario.wan)
    except SnapshotError as error:
        print(f"repro snapshot: {error}", file=sys.stderr)
        return 1
    report = service.restore_report
    assert report is not None
    print(f"restored {args.dir}: days {list(report.days_restored)}, "
          f"lost {list(report.days_lost)}, "
          f"trained on {list(service.trained_days)}")
    for name, reason in report.degraded:
        print(f"  degraded: {name}: {reason}")
    if not args.verify:
        return 0
    size, seed, days, window = recipe
    reference = TipsyService(
        scenario.wan, ServiceConfig(training_window_days=window))
    _ingest(reference, scenario, days)
    contexts = scenario.flow_contexts
    expected = reference.predict_batch(contexts)
    actual = service.predict_batch(contexts)
    if expected != actual:
        mismatches = sum(1 for e, a in zip(expected, actual) if e != a)
        print(f"repro snapshot: VERIFY FAILED — {mismatches}/"
              f"{len(contexts)} predictions differ from the "
              f"uninterrupted reference", file=sys.stderr)
        return 1
    print(f"verify OK: {len(contexts)} predictions byte-identical to "
          f"the uninterrupted reference")
    return 0


def _snapshot_inspect(args: argparse.Namespace) -> int:
    store = SegmentStore(args.dir)
    rows: List[Tuple[str, str, str, str, str]] = [
        ("segment", "kind", "rows", "bytes", "status")]
    worst = 0
    for info, status in store.inspect():
        rows.append((info.name, info.kind, str(info.rows),
                     str(info.nbytes), status))
        if status != "ok":
            worst = 1
    manifest_issues = [reason for name, reason in store.degraded
                       if name == "<manifest>"]
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    for row in rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    for reason in manifest_issues:
        print(f"manifest: {reason}")
        worst = 1
    if not store.segments() and not manifest_issues:
        print(f"{args.dir}: empty store")
    return worst


def run_snapshot(args: argparse.Namespace) -> int:
    if args.action == "save":
        return _snapshot_save(args)
    if args.action == "load":
        return _snapshot_load(args)
    return _snapshot_inspect(args)
