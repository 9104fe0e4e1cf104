"""``repro lint`` — the determinism & concurrency gate.

Exit codes: 0 clean, 1 violations found (including files that failed to
parse, reported as RA000), 2 on a usage error: an unknown rule code, a
missing path, or a project-only code selected without ``--project``.

Two analysis modes:

* default — per-file rules (RA0xx–RA4xx) over the given paths;
* ``--project`` — whole-program mode: per-file rules **plus** the
  semantic rules RA5xx/RA6xx, the RA7xx determinism dataflow and the
  RA8xx lifecycle/durability wave, in one uncached in-memory pass.
  Selecting one of those codes without ``--project`` is a usage error
  (exit 2), never a silent "clean".

``--format sarif`` emits SARIF 2.1.0 for GitHub code scanning.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, TextIO

from .base import PROJECT_RULES, RULES
from .engine import AnalysisReport, analyze_paths
from .project import analyze_project


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src)")
    parser.add_argument(
        "--project", action="store_true",
        help="whole-program mode: adds the cross-module rules "
             "RA502/RA601, the RA7xx determinism dataflow, and "
             "the RA8xx lifecycle/durability wave")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (json/sarif are machine-readable; sarif "
             "feeds GitHub code scanning)")
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to enable (default: all)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit")
    parser.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="also write the report to FILE (in the chosen format)")


def _parse_codes(spec: Optional[str]) -> Optional[FrozenSet[str]]:
    if spec is None:
        return None
    return frozenset(c.strip().upper() for c in spec.split(",") if c.strip())


def _render_text(report: AnalysisReport, stream: TextIO) -> None:
    for violation in report.violations:
        print(violation.render(), file=stream)
    counts = report.counts_by_code()
    summary = ", ".join(f"{code}×{n}" for code, n in counts.items())
    if report.clean:
        print(f"repro lint: {report.files_scanned} files scanned, "
              "clean", file=stream)
    else:
        print(f"repro lint: {report.files_scanned} files scanned, "
              f"{len(report.violations)} violation(s): {summary}",
              file=stream)


def to_sarif(report: AnalysisReport) -> Dict[str, object]:
    """SARIF 2.1.0 payload for GitHub code-scanning upload."""
    used = sorted({v.code for v in report.violations})
    rules = [{
        "id": code,
        "name": RULES[code][0] if code in RULES else code,
        "shortDescription": {
            "text": RULES[code][1] if code in RULES else code},
        "helpUri": ("https://github.com/tipsy-repro/tipsy-repro/blob/"
                    "main/docs/static-analysis.md"),
    } for code in used]
    results = [{
        "ruleId": v.code,
        "level": "error",
        "message": {"text": v.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": v.path.replace("\\", "/"),
                    "uriBaseId": "%SRCROOT%",
                },
                "region": {"startLine": v.line,
                           "startColumn": v.col},
            },
        }],
    } for v in report.violations]
    return {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro-lint",
                "informationUri": ("https://github.com/tipsy-repro/"
                                   "tipsy-repro"),
                "rules": rules,
            }},
            "results": results,
        }],
    }


def _render(report: AnalysisReport, fmt: str, stream: TextIO) -> None:
    if fmt == "json":
        json.dump(report.to_json(), stream, indent=2)
        stream.write("\n")
    elif fmt == "sarif":
        json.dump(to_sarif(report), stream, indent=2)
        stream.write("\n")
    else:
        _render_text(report, stream)


def run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for code, (name, description) in sorted(RULES.items()):
            marker = "*" if code in PROJECT_RULES else " "
            print(f"{code}{marker} {name:<22s} {description}")
        print("\n(* = needs whole-program context: runs only under "
              "--project)")
        return 0
    raw_paths: List[str] = args.paths or ["src"]
    paths = [Path(p) for p in raw_paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print("repro lint: no such path: "
              + ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    select = _parse_codes(args.select)
    unknown = sorted(select.difference(RULES)) if select else []
    if unknown:
        print(f"repro lint: unknown rule code(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    if select is not None and not args.project:
        needs_project = sorted(select & PROJECT_RULES)
        if needs_project:
            print(f"repro lint: --select {','.join(needs_project)} needs "
                  "--project (whole-program rules never fire in "
                  "per-file mode)", file=sys.stderr)
            return 2

    if args.project:
        report = analyze_project(paths, select=select, root=Path.cwd())
    else:
        report = analyze_paths(paths, select=select, root=Path.cwd())
    _render(report, args.format, sys.stdout)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            _render(report, args.format, handle)
    return 0 if report.clean else 1
