"""``repro serve`` — run and inspect the long-running serving daemon.

* ``run`` drives a :class:`~repro.serve.daemon.ServeDaemon` over a
  synthetic telemetry stream: sharded hourly ingest, periodic
  checkpoints, periodic status lines, optional sample queries each hour
  to exercise the serving path, and a graceful SIGINT/SIGTERM shutdown
  that drains in-flight work and writes a final checkpoint.  With
  ``--resume`` the daemon restores the checkpoint and continues the
  stream at the hour after the one it last absorbed — the restart
  procedure in ``docs/operations.md``, runnable end to end.
* ``status`` inspects a checkpoint directory offline: the shard-layout
  manifest, the scenario recipe, and each shard's segment footprint.

The scenario recipe (size/seed/window) is recorded next to the daemon
manifest at checkpoint time so ``--resume`` and ``status`` can rebuild
the world without re-specifying flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from pathlib import Path
from types import FrameType
from typing import Dict, List, Optional

from ..store.cli import at_least_one, at_least_zero, build_scenario
from .daemon import (MANIFEST_NAME, DaemonConfig, ServeDaemon, ShardError,
                     read_manifest)

ACTIONS = ("run", "status")

RECIPE_NAME = "scenario.json"


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("action", choices=ACTIONS,
                        help="run the daemon over a telemetry stream, or "
                             "inspect a checkpoint directory")
    parser.add_argument("--size", choices=("small", "medium"),
                        default="small",
                        help="scenario scale for `run` (default: small)")
    parser.add_argument("--seed", type=int, default=0,
                        help="scenario seed (default: 0)")
    parser.add_argument("--days", type=at_least_one, default=9,
                        help="days of telemetry to stream (default: 9)")
    parser.add_argument("--window", type=at_least_one, default=7,
                        help="rolling training window in days (default: 7)")
    parser.add_argument("--shards", type=at_least_one, default=4,
                        help="number of model-state shards (default: 4)")
    parser.add_argument("--workers", choices=("process", "inline"),
                        default="process",
                        help="shard workers as processes or in-daemon "
                             "threads (default: process)")
    parser.add_argument("--dir", metavar="DIR", default=None,
                        help="checkpoint directory (required for `status`, "
                             "enables checkpoints for `run`)")
    parser.add_argument("--checkpoint-every", type=at_least_zero, default=24,
                        metavar="HOURS",
                        help="checkpoint cadence in ingested hours "
                             "(default: 24; 0 disables periodic ones)")
    parser.add_argument("--status-every", type=at_least_zero, default=24,
                        metavar="HOURS",
                        help="status-line cadence in ingested hours "
                             "(default: 24; 0 = only the final one)")
    parser.add_argument("--resume", action="store_true",
                        help="restore the checkpoint in --dir and continue "
                             "the stream where it left off")
    parser.add_argument("--queries", type=at_least_zero, default=0,
                        metavar="N",
                        help="sample predictions to serve per ingested "
                             "hour (exercises the query path; default: 0)")
    parser.add_argument("--hour-delay", type=_seconds, default=0.0,
                        metavar="SECONDS",
                        help="sleep between hours to emulate a live feed "
                             "(default: 0, full speed)")


def _seconds(text: str) -> float:
    """An ``argparse`` type for a delay: a finite number of seconds of
    at least 0 (anything else is a usage error, exit 2)."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of at least 0, got {text}")
    return value


def _write_recipe(directory: Path, size: str, seed: int, days: int,
                  window: int) -> None:
    # the recipe is a tracked durable artifact ([tool.repro.durability]):
    # commit it tmp + fsync + rename so a crashed run never leaves a
    # torn scenario.json for --resume/status to choke on (RA804)
    payload = {"size": size, "seed": seed, "days": days, "window": window}
    path = directory / RECIPE_NAME
    tmp = directory / (RECIPE_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _read_recipe(directory: Path) -> Optional[Dict[str, object]]:
    try:
        payload = json.loads(
            (directory / RECIPE_NAME).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def _serve_run(args: argparse.Namespace) -> int:
    from ..core.service import ServiceConfig

    checkpoint_dir = Path(args.dir) if args.dir else None
    if args.resume and checkpoint_dir is None:
        print("repro serve: --resume requires --dir", file=sys.stderr)
        return 1

    size, seed, days, window = args.size, args.seed, args.days, args.window
    if args.resume:
        assert checkpoint_dir is not None
        recipe = _read_recipe(checkpoint_dir)
        if recipe is not None:
            size = str(recipe.get("size", size))
            recipe_seed = recipe.get("seed", seed)
            seed = recipe_seed if isinstance(recipe_seed, int) else seed
            recipe_window = recipe.get("window", window)
            window = (recipe_window if isinstance(recipe_window, int)
                      else window)
    scenario = build_scenario(size, seed, days)

    try:
        if args.resume:
            assert checkpoint_dir is not None
            daemon = ServeDaemon.resume(checkpoint_dir, scenario.wan,
                                        workers=args.workers)
        else:
            config = DaemonConfig(
                n_shards=args.shards, workers=args.workers,
                service=ServiceConfig(training_window_days=window))
            daemon = ServeDaemon(scenario.wan, config).start()
    except ShardError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 1

    start_hour = 0
    if daemon.last_hour is not None:
        start_hour = daemon.last_hour + 1
    end_hour = days * 24
    if start_hour >= end_hour:
        print(f"repro serve: checkpoint already at hour "
              f"{daemon.last_hour}; nothing to stream "
              f"(--days {days} = {end_hour} hours)")
        daemon.shutdown(drain=True)
        return 0

    mode = "resumed" if args.resume else "started"
    print(f"serve: {mode} {daemon.config.n_shards} shards "
          f"({daemon.config.workers}), streaming hours "
          f"{start_hour}..{end_hour - 1} of the {size} scenario")

    stop_requested: List[int] = []

    def on_signal(signum: int, frame: Optional[FrameType]) -> None:
        stop_requested.append(signum)

    previous = {s: signal.signal(s, on_signal)
                for s in (signal.SIGINT, signal.SIGTERM)}
    hours_done = 0
    exit_code = 0
    try:
        for columns in scenario.aggregated_hours(start_hour, end_hour):
            if stop_requested:
                name = signal.Signals(stop_requested[0]).name
                print(f"serve: {name} received — draining and "
                      "checkpointing before exit")
                break
            daemon.ingest_hour(columns.hour, columns)
            hours_done += 1
            if args.queries > 0 and columns.hour >= 24:
                # serving starts at the first day-boundary retrain; the
                # warm-up hours before it have no trained models to ask
                contexts = scenario.flow_contexts[:args.queries]
                if contexts:
                    daemon.predict_batch(contexts)
            hour_count = columns.hour + 1
            if (args.status_every > 0
                    and hour_count % args.status_every == 0):
                print(daemon.status().format_text())
            if (checkpoint_dir is not None and args.checkpoint_every > 0
                    and hour_count % args.checkpoint_every == 0):
                daemon.checkpoint(checkpoint_dir)
                _write_recipe(checkpoint_dir, size, seed, days, window)
                print(f"serve: checkpointed hour {columns.hour} "
                      f"-> {checkpoint_dir}")
            if args.hour_delay > 0:
                time.sleep(args.hour_delay)
        daemon.drain()
        if checkpoint_dir is not None:
            daemon.checkpoint(checkpoint_dir)
            _write_recipe(checkpoint_dir, size, seed, days, window)
            print(f"serve: final checkpoint -> {checkpoint_dir}")
        print(daemon.status().format_text())
        print(f"serve: ingested {hours_done} hours, shutting down "
              "(draining)")
    except ShardError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        exit_code = 1
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        try:
            daemon.shutdown(drain=exit_code == 0)
        except ShardError as error:
            print(f"repro serve: shutdown: {error}", file=sys.stderr)
            exit_code = 1
    return exit_code


def _serve_status(args: argparse.Namespace) -> int:
    from ..store.segments import SegmentStore

    if not args.dir:
        print("repro serve: status requires --dir", file=sys.stderr)
        return 1
    root = Path(args.dir)
    try:
        manifest = read_manifest(root)
    except ShardError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 1
    n_shards = manifest["n_shards"]
    assert isinstance(n_shards, int)  # read_manifest validated it
    print(f"{root / MANIFEST_NAME}: layout v{manifest['layout_version']}, "
          f"{n_shards} shards, last_hour={manifest['last_hour']}")
    recipe = _read_recipe(root)
    if recipe is not None:
        print(f"scenario: size={recipe.get('size')} "
              f"seed={recipe.get('seed')} window={recipe.get('window')}")
    worst = 0
    for shard_id in range(n_shards):
        shard_dir = root / f"shard-{shard_id:02d}"
        if not shard_dir.is_dir():
            print(f"  shard {shard_id:02d}: MISSING ({shard_dir})")
            worst = 1
            continue
        store = SegmentStore(shard_dir)
        days = sum(1 for i in store.segments() if i.kind == "day_counts")
        print(f"  shard {shard_id:02d}: {days} day segments, "
              f"{store.total_bytes()} bytes")
    return worst


def run_serve(args: argparse.Namespace) -> int:
    if args.action == "run":
        return _serve_run(args)
    return _serve_status(args)
