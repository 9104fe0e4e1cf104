"""Durability-protocol analysis (RA800, RA804).

The serving substrate survives crashes only because every durable
artifact is committed the same way: write to a temp name in the final
directory, flush + ``os.fsync``, then ``os.replace`` onto the real
name — and the manifest that makes the artifacts visible is replaced
*last*.  ``repro.store.segments`` and ``repro.serve.daemon`` both
implement that protocol by hand; nothing enforced it, so a new write
site (or a refactor) could silently regress to a torn-file window.

This module makes the protocol a contract:

1. a ``[tool.repro.durability]`` table in ``pyproject.toml`` names the
   tracked artifact *file names* (``fnmatch`` patterns, matched
   against the string fragments that flow into a write target)::

       [tool.repro.durability]
       manifest  = ["serve.json", "MANIFEST.json"]
       artifacts = ["*.npz", "scenario.json"]

2. :func:`extract_dura_sites` scans each module once for
   write/rename/replace/fsync sites, tracking constant string
   fragments through locals, f-strings, ``/`` path joins and
   ``.with_name``/``.with_suffix`` so ``root / (NAME + ".tmp")``
   still resolves to ``NAME``'s value;

3. :func:`check_durability` reports **RA804** when a tracked name is
   written directly (``open(..., "w")`` / ``write_text`` to a
   non-temp target), moved with non-atomic ``os.rename`` /
   ``shutil.move``, replaced by a function that neither calls
   ``os.fsync`` itself nor reaches one through the call graph, or
   when a manifest is committed *before* a tracked artifact in the
   same function (manifest-last ordering).

**RA800** covers the config itself: a malformed table raises
:class:`DurabilityConfigError`; a pattern that is empty or contains a
path separator (patterns match file *names*) is reported, as is a
file governed by a different durability table than the one the run
resolved (mirroring the RA700 scope warning).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import (Dict, FrozenSet, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from .base import ImportMap, ModuleContext, Violation, _snippet
from .callgraph import FunctionKey, ProjectGraph


class DurabilityConfigError(ValueError):
    """The ``[tool.repro.durability]`` table is malformed."""


@dataclass(frozen=True)
class DurabilityConfig:
    """Validated artifact table: fnmatch patterns over file names."""

    manifest: Tuple[str, ...] = ()
    artifacts: Tuple[str, ...] = ()
    source: str = "<memory>"

    @property
    def tracked(self) -> Tuple[str, ...]:
        return self.manifest + self.artifacts

    @staticmethod
    def _match(fragments: Sequence[str],
               patterns: Sequence[str]) -> Optional[str]:
        for fragment in fragments:
            for pattern in patterns:
                if pattern and fnmatch(fragment, pattern):
                    return pattern
        return None

    def tracked_pattern(self, fragments: Sequence[str]) -> Optional[str]:
        """First tracked pattern a target's fragments match, if any."""
        return self._match(fragments, self.tracked)

    def is_manifest(self, fragments: Sequence[str]) -> bool:
        return self._match(fragments, self.manifest) is not None


def durability_from_table(raw: Mapping[str, object],
                          source: str) -> DurabilityConfig:
    """Validate a raw ``[tool.repro.durability]`` table."""
    def pattern_list(name: str, value: object) -> Tuple[str, ...]:
        if not isinstance(value, (list, tuple)) or not all(
                isinstance(item, str) for item in value):
            raise DurabilityConfigError(
                f"{source}: [tool.repro.durability] key {name!r} must "
                "map to a list of file-name patterns")
        return tuple(value)

    manifest: Tuple[str, ...] = ()
    artifacts: Tuple[str, ...] = ()
    for key, value in raw.items():
        if key == "manifest":
            manifest = pattern_list(key, value)
        elif key == "artifacts":
            artifacts = pattern_list(key, value)
        else:
            raise DurabilityConfigError(
                f"{source}: [tool.repro.durability] has unknown key "
                f"{key!r} (expected 'manifest' or 'artifacts')")
    return DurabilityConfig(manifest=manifest, artifacts=artifacts,
                            source=source)


def check_durability_config(config: DurabilityConfig) -> List[Violation]:
    """RA800 for patterns the matcher can never satisfy."""
    violations: List[Violation] = []
    for pattern in config.tracked:
        if pattern and "/" not in pattern and "\\" not in pattern:
            continue
        shown = pattern or "<empty>"
        violations.append(Violation(
            path=config.source, line=1, col=1, code="RA800",
            message=(f"durability pattern {shown!r} cannot match: "
                     "patterns are fnmatch'd against file *names* "
                     "(no path separators, no empty patterns)")))
    return violations


# -- sites --------------------------------------------------------------------

@dataclass(frozen=True)
class DuraSite:
    """One durability-relevant operation inside one function.

    ``op`` is one of ``open`` (write-mode open), ``write``
    (``write_text``/``write_bytes``), ``rename`` (``os.rename`` /
    ``shutil.move`` / single-arg ``.rename``), ``replace``
    (``os.replace`` / single-arg ``.replace``), or ``fsync`` (an
    ``os.fsync`` call, recorded so link time knows which functions
    flush).  ``fragments`` are the constant string pieces that flow
    into the *destination* path; ``is_tmp`` marks targets that are
    temp names by content (``.tmp``) or by variable name.
    """

    function: str        # qualname within the module ("f", "C.m", "<module>")
    op: str
    lineno: int
    col: int             # 1-based, like Violation
    fragments: Tuple[str, ...] = ()
    is_tmp: bool = False
    detail: str = ""     # short source rendering for messages


# -- extraction ---------------------------------------------------------------

_WRITE_MODES = ("w", "a", "x", "+")

#: path-combining methods through which fragments flow
_PATH_METHODS: FrozenSet[str] = frozenset({
    "with_name", "with_suffix", "joinpath",
})


class _FragmentTracker:
    """Constant string fragments flowing through one function's locals."""

    def __init__(self, module_strs: Mapping[str, str]) -> None:
        self.module_strs = module_strs
        self.local_frags: Dict[str, Tuple[FrozenSet[str], bool]] = {}

    def fragments(self, node: ast.expr) -> Tuple[FrozenSet[str], bool]:
        """(constant fragments, looks-like-a-temp-name) for a target."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return frozenset({node.value}), ".tmp" in node.value
        if isinstance(node, ast.Name):
            bound, bound_tmp = self.local_frags.get(
                node.id, (frozenset(), False))
            const = self.module_strs.get(node.id)
            if const is not None:
                bound = bound | {const}
                bound_tmp = bound_tmp or ".tmp" in const
            return bound, bound_tmp or "tmp" in node.id.lower()
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Div, ast.Mod)):
            left, left_tmp = self.fragments(node.left)
            right, right_tmp = self.fragments(node.right)
            return left | right, left_tmp or right_tmp
        if isinstance(node, ast.JoinedStr):
            parts: Set[str] = set()
            parts_tmp = False
            for value in node.values:
                if isinstance(value, ast.Constant) and isinstance(
                        value.value, str) and value.value:
                    parts.add(value.value)
                    parts_tmp = parts_tmp or ".tmp" in value.value
            return frozenset(parts), parts_tmp
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _PATH_METHODS):
                base, base_tmp = self.fragments(func.value)
                for arg in node.args:
                    more, more_tmp = self.fragments(arg)
                    base, base_tmp = base | more, base_tmp or more_tmp
                return base, base_tmp
            if isinstance(func, ast.Name) and func.id in ("Path", "str"):
                joined: FrozenSet[str] = frozenset()
                joined_tmp = False
                for arg in node.args:
                    more, more_tmp = self.fragments(arg)
                    joined = joined | more
                    joined_tmp = joined_tmp or more_tmp
                return joined, joined_tmp
        if isinstance(node, ast.Attribute):
            # receiver-name heuristic only: `self.tmp_path`, `tmpdir.x`
            return frozenset(), "tmp" in node.attr.lower()
        return frozenset(), False

    def bind(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        frags, is_tmp = self.fragments(value)
        if frags or is_tmp:
            self.local_frags[target.id] = (frags, is_tmp)
        else:
            self.local_frags.pop(target.id, None)


def _open_mode(node: ast.Call) -> str:
    if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
            and isinstance(node.args[1].value, str):
        return node.args[1].value
    for keyword in node.keywords:
        if keyword.arg == "mode" and isinstance(
                keyword.value, ast.Constant) and isinstance(
                keyword.value.value, str):
            return keyword.value.value
    return "r"


class _DuraScanner:
    """Statement-ordered walk of one function body collecting sites."""

    def __init__(self, qualname: str, module_strs: Mapping[str, str],
                 imports: ImportMap, sites: List[DuraSite]) -> None:
        self.qualname = qualname
        self.tracker = _FragmentTracker(module_strs)
        self.imports = imports
        self.sites = sites

    def _site(self, node: ast.AST, op: str, target: Optional[ast.expr],
              detail: str = "") -> None:
        frags: Tuple[str, ...] = ()
        is_tmp = False
        if target is not None:
            frag_set, is_tmp = self.tracker.fragments(target)
            frags = tuple(sorted(frag_set))
        self.sites.append(DuraSite(
            function=self.qualname, op=op,
            lineno=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            fragments=frags, is_tmp=is_tmp, detail=detail))

    def _call(self, node: ast.Call) -> None:
        func = node.func
        dotted = self.imports.resolve_attribute(func)
        if isinstance(func, ast.Name) and func.id == "open" and node.args:
            mode = _open_mode(node)
            if any(flag in mode for flag in _WRITE_MODES):
                self._site(node, "open", node.args[0],
                           detail=f"open({_snippet(node.args[0])}, "
                                  f"{mode!r})")
            return
        if dotted == "os.fsync":
            self._site(node, "fsync", None)
            return
        if dotted in ("os.rename", "shutil.move") and len(node.args) >= 2:
            self._site(node, "rename", node.args[1],
                       detail=f"{dotted}(..., "
                              f"{_snippet(node.args[1])})")
            return
        if dotted == "os.replace" and len(node.args) >= 2:
            self._site(node, "replace", node.args[1],
                       detail=f"os.replace(..., "
                              f"{_snippet(node.args[1])})")
            return
        if isinstance(func, ast.Attribute):
            if func.attr in ("write_text", "write_bytes"):
                self._site(node, "write", func.value,
                           detail=f"{_snippet(func.value)}"
                                  f".{func.attr}(...)")
            elif func.attr in ("replace", "rename") \
                    and len(node.args) == 1 and not node.keywords:
                # single argument: Path.replace/rename (str.replace
                # takes two), destination is the argument
                self._site(node, func.attr, node.args[0],
                           detail=f"{_snippet(func.value)}.{func.attr}"
                                  f"({_snippet(node.args[0])})")

    def _expr(self, node: ast.expr) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._call(sub)

    def scan(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._expr(stmt.value)
            for target in stmt.targets:
                self.tracker.bind(target, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._expr(stmt.value)
            self.tracker.bind(stmt.target, stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter)
            self.scan(stmt.body)
            self.scan(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._expr(stmt.test)
            self.scan(stmt.body)
            self.scan(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test)
            self.scan(stmt.body)
            self.scan(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr(item.context_expr)
            self.scan(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.scan(stmt.body)
            for handler in stmt.handlers:
                self.scan(handler.body)
            self.scan(stmt.orelse)
            self.scan(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = _DuraScanner(self.qualname,
                                  self.tracker.module_strs,
                                  self.imports, self.sites)
            nested.scan(stmt.body)
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    nested = _DuraScanner(self.qualname,
                                          self.tracker.module_strs,
                                          self.imports, self.sites)
                    nested.scan(item.body)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)


def extract_dura_sites(context: ModuleContext) -> List[DuraSite]:
    """All durability sites in one module, grouped by function."""
    module_strs: Dict[str, str] = {}
    for node in context.tree.body:
        if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Constant) and isinstance(
                node.value.value, str):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    module_strs[target.id] = node.value.value

    sites: List[DuraSite] = []
    for unit in context.functions:
        _DuraScanner(unit.qualname, module_strs, context.imports,
                     sites).scan(unit.body)
    return sites


# -- the check ----------------------------------------------------------------

def _function_fsyncs(sites_by_module: Mapping[str, Sequence[DuraSite]]
                     ) -> Set[FunctionKey]:
    out: Set[FunctionKey] = set()
    for module_name, sites in sites_by_module.items():
        for site in sites:
            if site.op == "fsync":
                out.add((module_name, site.function))
    return out


def _reaches_fsync(graph: ProjectGraph, key: FunctionKey,
                   fsyncs: Set[FunctionKey],
                   cache: Dict[FunctionKey, bool]) -> bool:
    if key in cache:
        return cache[key]
    reached = graph.reachable_from([key])
    result = any(node in fsyncs for node in reached)
    cache[key] = result
    return result


def check_durability(
        graph: ProjectGraph,
        sites_by_module: Mapping[str, Sequence[DuraSite]],
        config: DurabilityConfig,
) -> List[Violation]:
    """RA804 over every tracked write target plus RA800 config checks."""
    violations = check_durability_config(config)
    fsyncs = _function_fsyncs(sites_by_module)
    fsync_cache: Dict[FunctionKey, bool] = {}

    for module_name in sorted(sites_by_module):
        facts = graph.modules.get(module_name)
        if facts is None:
            continue
        by_function: Dict[str, List[DuraSite]] = {}
        for site in sites_by_module[module_name]:
            by_function.setdefault(site.function, []).append(site)
        for function in sorted(by_function):
            sites = sorted(by_function[function],
                           key=lambda s: (s.lineno, s.col))
            manifest_commit: Optional[DuraSite] = None
            for site in sites:
                if site.op == "fsync":
                    continue
                pattern = config.tracked_pattern(site.fragments)
                if pattern is None:
                    continue
                if facts.is_suppressed(site.lineno, "RA804"):
                    continue
                committed = False
                if site.op in ("open", "write"):
                    if not site.is_tmp:
                        violations.append(Violation(
                            path=facts.display_path, line=site.lineno,
                            col=site.col, code="RA804",
                            message=(f"{site.detail} writes tracked "
                                     f"artifact `{pattern}` in place "
                                     f"in `{function}`; a crash "
                                     "mid-write leaves a torn file — "
                                     "write a temp name, fsync, then "
                                     "os.replace onto the real "
                                     "name")))
                        committed = True
                elif site.op == "rename":
                    violations.append(Violation(
                        path=facts.display_path, line=site.lineno,
                        col=site.col, code="RA804",
                        message=(f"{site.detail} moves tracked "
                                 f"artifact `{pattern}` without "
                                 "durability in "
                                 f"`{function}`; use os.replace after "
                                 "an fsync so the commit is atomic "
                                 "and survives power loss")))
                    committed = True
                elif site.op == "replace":
                    committed = True
                    key: FunctionKey = (module_name, function)
                    if not _reaches_fsync(graph, key, fsyncs,
                                          fsync_cache):
                        violations.append(Violation(
                            path=facts.display_path, line=site.lineno,
                            col=site.col, code="RA804",
                            message=(f"{site.detail} commits tracked "
                                     f"artifact `{pattern}` but "
                                     f"`{function}` never reaches an "
                                     "`os.fsync`; the rename can be "
                                     "durable before the data is — "
                                     "fsync the temp file before "
                                     "replacing")))
                if committed:
                    is_manifest = config.is_manifest(site.fragments)
                    if is_manifest and manifest_commit is None:
                        manifest_commit = site
                    elif (not is_manifest
                            and manifest_commit is not None
                            and not facts.is_suppressed(site.lineno,
                                                        "RA804")):
                        violations.append(Violation(
                            path=facts.display_path, line=site.lineno,
                            col=site.col, code="RA804",
                            message=(f"tracked artifact `{pattern}` "
                                     "is committed after the manifest "
                                     f"(line {manifest_commit.lineno}) "
                                     f"in `{function}`; commit the "
                                     "manifest last so it never "
                                     "references artifacts that do "
                                     "not exist yet")))
    return violations


__all__: Tuple[str, ...] = (
    "DurabilityConfig", "DurabilityConfigError", "DuraSite",
    "check_durability", "check_durability_config",
    "durability_from_table", "extract_dura_sites",
)
