"""Run one workload of the TIPSY end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload replay --seed 1
    python3 benchmarks/e2e/run.py --workload query_steady --seed 1 --trace
    python3 benchmarks/e2e/run.py --workload all --seed 1 --out runs.jsonl

Prints every metric by name with its unit, direction, sample count and
regression bound, then — as the last line — one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace`` the per-layer ones).  Exits
non-zero when an operation failed or an oracle did not hold.  The metric
names, units and bounds are read from ``BENCHMARK.json`` at the root of
the checkout; see ``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Dict, List, Optional

from tipsybench import REPO_ROOT

try:
    from tipsybench import churn, replay, serving
    from tipsybench.common import (FULL, QUICK, Outcome, fingerprint,
                                   peak_rss_mb)
except ModuleNotFoundError as error:
    # e.g. a directory that holds the benchmark but not the program
    sys.exit(f"run.py: {error} (the benchmark drives the repository's "
             f"src/ tree, looked for under {REPO_ROOT})")

WORKLOADS = {
    "replay": replay.run,
    "query_steady": serving.run_steady,
    "serve_live": serving.run_live,
    "withdrawal_churn": churn.run,
}


def load_spec() -> Dict[str, object]:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _table(out: Outcome, spec: Dict[str, object]) -> List[str]:
    kind = "per_layer" if out.trace else "end_to_end"
    values = out.per_layer if out.trace else out.end_to_end
    lines = [f"{'metric':<38s} {'value':>14s} {'unit':<10s} {'better':<7s} "
             f"{'samples':>8s} {'bound':>6s}"]
    for metric in spec[kind]:  # type: ignore[union-attr]
        name = metric["name"]
        samples = out.samples.get(name)
        bound = metric.get("bound")
        lines.append(
            f"{name:<38s} {values[name]:>14.6g} {metric['unit']:<10s} "
            f"{metric['better']:<7s} "
            f"{'' if samples is None else samples:>8} "
            f"{'' if bound is None else format(bound, '.2f'):>6s}")
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool, out_path: Optional[str]) -> int:
    spec = load_spec()
    if seconds <= 0:
        seconds = float(spec["run_seconds"])  # type: ignore[arg-type]
    sizes = QUICK if quick else FULL
    out = Outcome(workload=workload, seed=seed, seconds=seconds,
                  trace=trace, quick=quick)
    out.params.update(sizes.describe())
    machine = fingerprint()
    WORKLOADS[workload](out, sizes)
    if "peak_rss_mb" not in out.end_to_end:
        out.put("peak_rss_mb", peak_rss_mb())

    kind = "per_layer" if trace else "end_to_end"
    values = out.per_layer if trace else out.end_to_end
    units = {m["name"]: m["unit"] for m in spec[kind]}  # type: ignore[union-attr]
    missing = sorted(set(units) - set(values))
    if missing:
        out.fail(f"metrics not produced: {missing}")
        for name in missing:
            values[name] = 0.0
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  "
          f"trace {int(trace)}{'  QUICK (not comparable)' if quick else ''}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    for line in _table(out, spec):
        print(line)
    print(f"operations attempted {out.attempted}  failed {out.failed}"
          f"{'' if out.valid else '  INVALID RUN (load generator)'}")
    for note in out.notes:
        print("note: " + note)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "quick": quick, "valid": out.valid,
        "attempted": out.attempted, "failed": out.failed,
        "machine": machine, "params": out.params, "notes": out.notes,
        "samples": out.samples, "raw": out.raw,
        "end_to_end": out.end_to_end, "per_layer": out.per_layer,
    }
    if out_path:
        with open(out_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if out.failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measured seconds (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced pass: per-layer metrics and "
                             "out/trace-<workload>.json")
    parser.add_argument("--quick", action="store_true",
                        help="self-test size; results are flagged and "
                             "compare.py refuses them")
    parser.add_argument("--out", help="append the full result as one JSON "
                                      "line to this file (for compare.py)")
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.quick, args.out)
    # one process per workload, so peak_rss_mb is each workload's own
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, __file__, "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.quick:
            command.append("--quick")
        if args.out:
            command += ["--out", args.out]
        status |= subprocess.run(command, check=False).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
