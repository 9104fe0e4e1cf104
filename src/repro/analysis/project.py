"""Project mode: whole-program analysis in one in-memory pass.

``repro lint --project`` upgrades the linter from per-file pattern
checks to semantic, cross-module rules:

1. every module is parsed **once** into a
   :class:`~repro.analysis.base.ModuleContext` — one AST, one import
   map, one function enumeration — which feeds the per-file checkers,
   the call-graph fact extractor
   (:class:`~repro.analysis.callgraph.ModuleFacts`) and the
   determinism / lifecycle / durability site scanners,
2. the facts are linked into a
   :class:`~repro.analysis.callgraph.ProjectGraph`,
3. the project rules run over the graph — RA502 (lock discipline),
   RA601 (the ``[tool.repro.layers]`` architecture contract), RA7xx
   (determinism dataflow) and RA8xx (lifecycle and durability).

Nothing is cached between runs: the whole of ``src`` lints cold in
under two seconds, interpreter start-up included, which is less than
an on-disk format and its invalidation rules cost to keep right.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .base import PROJECT_RULES, Violation
from .callgraph import ModuleFacts, ProjectGraph, extract_facts, \
    module_name_for
from .dataflow import DetSite, DeterminismConfig, check_determinism, \
    determinism_from_table, extract_det_sites
from .durability import DuraSite, DurabilityConfig, check_durability, \
    durability_from_table, extract_dura_sites
from .engine import AnalysisReport, analyze_module, display_for, \
    iter_python_files, parse_error, parse_module
from .layers import LayerConfig, check_layers, layers_from_table
from .lifecycle import LifeSite, check_lifecycle, extract_life_sites
from .locks import check_locks
from .tables import find_table


def _scope_warnings(files: Sequence[Tuple[Path, str]], table: str,
                    code: str, applied: str,
                    source: str) -> List[Violation]:
    """RA700/RA800 when one run spans pyprojects with different tables.

    A ``[tool.repro.<table>]`` is resolved once, from the first
    analyzed path (mirroring the layer-config behavior).  A file that
    actually sits under a *different* pyproject would silently inherit
    the wrong table, so each distinct foreign root draws one warning
    naming both tables instead of being checked against the wrong one
    in silence.
    """
    warnings: List[Violation] = []
    source_by_dir: Dict[Path, Optional[str]] = {}
    flagged: Set[str] = set()
    for path, display in files:
        directory = path.resolve().parent
        if directory not in source_by_dir:
            found = find_table(directory, table)
            source_by_dir[directory] = (None if found is None
                                        else found.source)
        governing = source_by_dir[directory]
        if governing == source:
            continue
        label = governing or f"<no {table} table>"
        if label in flagged:
            continue
        flagged.add(label)
        warnings.append(Violation(
            path=display, line=1, col=1, code=code,
            message=(f"file is governed by {label}, but this run "
                     f"applied the {applied} from {source} (resolved "
                     "from the first analyzed path); lint each root "
                     "separately or pass one explicit config")))
    return warnings


def analyze_project(paths: Sequence[Path],
                    select: Optional[FrozenSet[str]] = None,
                    root: Optional[Path] = None,
                    layer_config: Optional[LayerConfig] = None,
                    determinism: Optional[DeterminismConfig] = None,
                    durability: Optional[DurabilityConfig] = None
                    ) -> AnalysisReport:
    """Whole-program lint: per-file rules plus RA5xx through RA8xx.

    ``layer_config`` defaults to the nearest ``[tool.repro.layers]``
    table above the first analyzed path; without one, RA601 is skipped
    (there is no contract to enforce).  ``determinism`` defaults the
    same way to the nearest ``[tool.repro.determinism]`` table and
    gates the RA700–RA704 dataflow rules; ``durability`` likewise
    defaults to the nearest ``[tool.repro.durability]`` table and
    gates RA804.  When the analyzed paths span pyprojects with
    *different* tables, the first root's table applies and every
    foreign root draws an RA700/RA800 warning.  The lifecycle rules
    RA801/RA802/RA803/RA805 need no configuration and always run.
    """
    files: List[Tuple[Path, str]] = []   # (path, display)
    for file_path in iter_python_files(paths):
        display = display_for(file_path, root)
        files.append((file_path, display if display is not None
                      else str(file_path)))

    # internal roots are derived from the analyzed set itself, so the
    # graph needs no package configuration
    module_names = {path: module_name_for(path) for path, _ in files}
    internal_roots = frozenset(name.split(".")[0]
                               for name in module_names.values())

    violations: List[Violation] = []
    modules: List[ModuleFacts] = []
    det_sites: Dict[str, List[DetSite]] = {}
    life_sites: Dict[str, List[LifeSite]] = {}
    dura_sites: Dict[str, List[DuraSite]] = {}
    for file_path, display in files:
        source = file_path.read_text(encoding="utf-8")
        try:
            context = parse_module(source, file_path, display)
        except SyntaxError as exc:
            violations.append(parse_error(exc, display))
            continue
        violations.extend(analyze_module(context))
        facts = extract_facts(context, module_names[file_path],
                              internal_roots)
        modules.append(facts)
        violations.extend(check_locks(context.tree, display,
                                      facts.suppressed))
        det_sites.setdefault(facts.module, []).extend(
            extract_det_sites(context))
        life_sites.setdefault(facts.module, []).extend(
            extract_life_sites(context))
        dura_sites.setdefault(facts.module, []).extend(
            extract_dura_sites(context))

    graph = ProjectGraph.link(modules)
    violations.extend(check_lifecycle(graph, life_sites))

    first = files[0][0] if files else None
    if layer_config is None and first is not None:
        found = find_table(first, "layers")
        if found is not None:
            layer_config = layers_from_table(*found)
    if layer_config is not None:
        violations.extend(check_layers(modules, layer_config))

    if determinism is None and first is not None:
        found = find_table(first, "determinism")
        if found is not None:
            determinism = determinism_from_table(*found)
            violations.extend(_scope_warnings(
                files, "determinism", "RA700", "contracts",
                determinism.source))
    if determinism is not None:
        violations.extend(check_determinism(graph, det_sites, determinism))

    if durability is None and first is not None:
        found = find_table(first, "durability")
        if found is not None:
            durability = durability_from_table(*found)
            violations.extend(_scope_warnings(
                files, "durability", "RA800", "artifact patterns",
                durability.source))
    if durability is not None:
        violations.extend(
            check_durability(graph, dura_sites, durability))

    if select is not None:
        violations = [v for v in violations if v.code in select]
    return AnalysisReport(violations=sorted(violations),
                          files_scanned=len(files))


#: re-exported so callers can reason about which codes need --project
__all__ = ["analyze_project", "PROJECT_RULES"]
