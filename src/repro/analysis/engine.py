"""The analyzer engine: walk files, run every checker, apply noqa.

The engine is deliberately dependency-free (stdlib ``ast`` only) so the
lint gate runs anywhere the package imports — CI, pre-commit, or a
bare container with nothing but the runtime installed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence

from .base import (ModuleContext, Violation, apply_suppressions,
                   checker_classes)

#: directory names never worth scanning
_SKIP_DIRS: FrozenSet[str] = frozenset({
    "__pycache__", ".git", ".venv", "venv", "build", "dist",
    "node_modules",
})


@dataclass
class AnalysisReport:
    """Everything one lint run produced."""

    violations: List[Violation] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    def counts_by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.code] = counts.get(violation.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self) -> Dict[str, object]:
        return {
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "violation_count": len(self.violations),
            "counts_by_code": self.counts_by_code(),
            "violations": [v.to_json() for v in self.violations],
        }


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic .py file sequence."""
    seen = set()
    for path in paths:
        if path.is_file():
            candidates: Iterable[Path] = [path]
        else:
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not _SKIP_DIRS.intersection(p.parts)
                and not any(part.endswith(".egg-info") for part in p.parts))
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def parse_module(source: str, path: Path, display: str) -> ModuleContext:
    """Parse one file into the context every rule consumes.

    Raises :class:`SyntaxError`; :func:`parse_error` renders it as the
    RA000 violation.
    """
    return ModuleContext(path=path, source=source,
                         tree=ast.parse(source, filename=str(path)),
                         display_path=display)


def parse_error(exc: SyntaxError, display: str) -> Violation:
    """RA000 for a file that does not parse."""
    return Violation(path=display, line=exc.lineno or 1,
                     col=(exc.offset or 0) + 1, code="RA000",
                     message=f"syntax error: {exc.msg}")


def analyze_module(context: ModuleContext) -> List[Violation]:
    """Run every per-file checker over one parsed module."""
    violations: List[Violation] = []
    for checker_cls in checker_classes():
        violations.extend(checker_cls(context).run())
    return sorted(apply_suppressions(context.source, violations))


def analyze_source(source: str, path: Path,
                   display_path: Optional[str] = None) -> List[Violation]:
    """Run every checker over one module's source text."""
    display = display_path if display_path is not None else str(path)
    try:
        context = parse_module(source, path, display)
    except SyntaxError as exc:
        return [parse_error(exc, display)]
    return analyze_module(context)


def display_for(file_path: Path, root: Optional[Path]) -> Optional[str]:
    """Path shown in reports: relative to ``root`` when possible."""
    if root is None:
        return None
    try:
        return str(file_path.resolve().relative_to(root.resolve()))
    except ValueError:
        return str(file_path)


def analyze_paths(paths: Sequence[Path],
                  select: Optional[FrozenSet[str]] = None,
                  root: Optional[Path] = None) -> AnalysisReport:
    """Lint every Python file under ``paths``.

    ``select`` restricts the report to the listed rule codes; ``root``
    relativises the paths shown in the report (for stable CI output).
    """
    report = AnalysisReport()
    for file_path in iter_python_files(paths):
        display = display_for(file_path, root)
        source = file_path.read_text(encoding="utf-8")
        found = analyze_source(source, file_path, display_path=display)
        report.files_scanned += 1
        if select is not None:
            found = [v for v in found if v.code in select]
        report.violations.extend(found)
    report.violations.sort()
    return report
