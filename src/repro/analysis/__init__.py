"""Repo-specific static analysis: the determinism & concurrency gate.

``repro lint`` (see :mod:`repro.analysis.cli`) walks the tree with
custom AST checkers enforcing the invariants the reproduction's
correctness rests on — explicitly-seeded RNG everywhere, no wall-clock
reads on the hot path, no mutable default arguments, a docstring on
every public module.  ``repro lint --project`` (see
:mod:`repro.analysis.project`) adds whole-program rules on top: a
lock-discipline checker (RA502), the architecture-layer contract
(RA601), the determinism/numeric-safety dataflow rules RA700–RA704
(see :mod:`repro.analysis.dataflow`) driven by the
``[tool.repro.determinism]`` contract table, and the
concurrency-lifecycle & durability wave RA800–RA805 (see
:mod:`repro.analysis.lifecycle` and
:mod:`repro.analysis.durability`) — lock-order deadlocks, blocking
calls under a lock, leaked threads/processes, and durable artifacts
(``[tool.repro.durability]``) written without tmp+fsync+rename — all
in one uncached pass that parses each file once.  Rules are documented
in ``docs/static-analysis.md`` and suppressed inline with
``# repro: noqa[RAxxx]``.
"""

from .base import (HOT_PACKAGES, PROJECT_RULES, RULES, Checker,
                   ImportMap, ModuleContext, Violation, apply_suppressions,
                   checker_classes, suppressed_lines)
from .dataflow import (DeterminismConfig, DeterminismConfigError,
                       DetSite, check_determinism,
                       determinism_from_table, extract_det_sites)
from .durability import (DurabilityConfig, DurabilityConfigError,
                         DuraSite, check_durability,
                         durability_from_table, extract_dura_sites)
from .engine import (AnalysisReport, analyze_paths, analyze_source,
                     iter_python_files)
from .lifecycle import LifeSite, check_lifecycle, extract_life_sites
from .project import analyze_project
from .tables import find_table, read_table

__all__ = [
    "HOT_PACKAGES",
    "PROJECT_RULES",
    "RULES",
    "Checker",
    "ImportMap",
    "ModuleContext",
    "Violation",
    "apply_suppressions",
    "checker_classes",
    "suppressed_lines",
    "DeterminismConfig",
    "DeterminismConfigError",
    "DetSite",
    "check_determinism",
    "determinism_from_table",
    "extract_det_sites",
    "DurabilityConfig",
    "DurabilityConfigError",
    "DuraSite",
    "check_durability",
    "durability_from_table",
    "extract_dura_sites",
    "find_table",
    "read_table",
    "LifeSite",
    "check_lifecycle",
    "extract_life_sites",
    "AnalysisReport",
    "analyze_paths",
    "analyze_source",
    "analyze_project",
    "iter_python_files",
]
