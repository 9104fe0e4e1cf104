"""Compare two sets of benchmark runs: ``compare.py A.jsonl B.jsonl``.

Each file holds one JSON line per run, as ``run.py --out FILE`` appends
them.  Prints one row per (workload, metric) with each side's median and
quartiles and the metric's bound from ``BENCHMARK.json``, and exits 1
when the two medians of any end-to-end metric differ by more than its
bound (in either direction: two sets of runs of the same code must
agree, and a change is reported as better or worse, never as noise).

Exits 2 without comparing when a file holds ``--quick`` runs, failed
runs, or no run at all of a workload the other side has.  A run the load
generator could not keep up with (``valid: false``) is left out and said
so: its latencies are the generator's, not the system's.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Tuple

from tipsybench import REPO_ROOT, stats

Runs = Dict[str, Dict[str, List[float]]]


class Refused(ValueError):
    """The runs in a file may not be compared."""


def load_runs(path: str) -> Runs:
    """``{workload: {metric: [value per run]}}`` of the untraced runs."""
    runs: Runs = {}
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            record = json.loads(line)
            where = f"{path}:{number} ({record.get('workload')})"
            if record.get("quick"):
                raise Refused(f"{where}: a --quick run is not comparable")
            if record.get("failed"):
                raise Refused(f"{where}: {record['failed']} operations "
                              "failed")
            if record.get("trace"):
                continue
            if not record.get("valid", True):
                print(f"left out: {where}: the load generator fell behind",
                      file=sys.stderr)
                continue
            metrics = runs.setdefault(record["workload"], {})
            for name, value in record["end_to_end"].items():
                metrics.setdefault(name, []).append(float(value))
    return runs


def compare(a: Runs, b: Runs, spec: Dict[str, object]
            ) -> Tuple[List[str], int]:
    """The report lines and how many metrics differ beyond their bound."""
    if set(a) != set(b):
        raise Refused(f"workloads differ: {sorted(a)} vs {sorted(b)}")
    lines = [f"{'workload':<17s} {'metric':<16s} {'unit':<9s} "
             f"{'A q1':>10s} {'A median':>10s} {'A q3':>10s} "
             f"{'B q1':>10s} {'B median':>10s} {'B q3':>10s} "
             f"{'change':>8s} {'bound':>6s}  verdict"]
    beyond = 0
    for workload in sorted(a):
        for metric in spec["end_to_end"]:  # type: ignore[union-attr]
            name = metric["name"]
            a1, a2, a3 = stats.quartiles(a[workload][name])
            b1, b2, b3 = stats.quartiles(b[workload][name])
            change = (b2 - a2) / abs(a2) if a2 else 0.0
            worse = change > 0 if metric["better"] == "lower" else change < 0
            verdict = "same"
            if abs(change) > metric["bound"]:
                beyond += 1
                verdict = "WORSE" if worse else "BETTER"
            lines.append(
                f"{workload:<17s} {name:<16s} {metric['unit']:<9s} "
                f"{a1:>10.5g} {a2:>10.5g} {a3:>10.5g} "
                f"{b1:>10.5g} {b2:>10.5g} {b3:>10.5g} "
                f"{change:>+8.1%} {metric['bound']:>6.2f}  {verdict}")
    return lines, beyond


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        lines, beyond = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    except Refused as error:
        print(f"refused: {error}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    if beyond:
        print(f"{beyond} end-to-end metric(s) differ by more than their "
              "bound")
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
