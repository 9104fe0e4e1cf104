"""Shared plumbing for the repo-specific static checkers.

Every checker is an :mod:`ast` visitor that walks one parsed module and
reports :class:`Violation` records.  The engine (``engine.py``) feeds
each checker a :class:`ModuleContext` describing the file under
analysis — its path, source lines, and whether it lives on a
determinism-critical hot path — and afterwards filters out violations
the author suppressed with an inline ``# repro: noqa[RAxxx]`` marker.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Type

#: registry of rule code -> (symbolic name, one-line description).
#: ``docs/static-analysis.md`` documents each in depth.
RULES: Dict[str, Tuple[str, str]] = {
    "RA000": ("parse-error",
              "file could not be parsed; nothing else was checked"),
    "RA001": ("global-random-call",
              "call to a global `random` module function (unseeded, "
              "process-wide RNG state)"),
    "RA002": ("numpy-global-random",
              "call to the legacy `numpy.random` global API (shared, "
              "unseeded generator state)"),
    "RA003": ("unseeded-rng",
              "RNG constructed without an explicit seed expression"),
    "RA201": ("wall-clock-hot-path",
              "wall-clock read inside a determinism-critical package"),
    "RA301": ("mutable-default-arg",
              "mutable default argument value shared across calls"),
    "RA401": ("missing-module-docstring",
              "public module does not open with a docstring"),
    "RA502": ("lock-discipline",
              "lock-guarded attribute read or written outside a "
              "`with self._lock:` block"),
    "RA601": ("layer-contract",
              "module-scope import crosses the architecture layer map "
              "([tool.repro.layers]) upward"),
    "RA700": ("determinism-config",
              "a [tool.repro.determinism] contract entry point does not "
              "resolve to a known function, class, or module"),
    "RA701": ("unordered-iteration",
              "iteration over an unordered collection feeds accumulation "
              "or emitted output on a determinism-contract path"),
    "RA702": ("unordered-float-sum",
              "order-sensitive float accumulation over an unordered "
              "collection on a determinism-contract path"),
    "RA703": ("dtype-instability",
              "numpy array built without a platform-stable pinned dtype "
              "on a determinism-contract path"),
    "RA704": ("ambient-nondeterminism",
              "ambient input (wall clock, environment, unseeded RNG, "
              "object identity) read on a determinism-contract path"),
    "RA800": ("durability-config",
              "a [tool.repro.durability] pattern cannot match, or a "
              "file is governed by a different durability table than "
              "the one this run resolved"),
    "RA801": ("lock-order-deadlock",
              "two locks are acquired in opposite orders on different "
              "paths (cycle in the acquired-while-holding graph)"),
    "RA802": ("blocking-under-lock",
              "unbounded blocking call (join/recv/get/wait/sleep/file "
              "IO) executed while a lock is held"),
    "RA803": ("thread-lifecycle",
              "Thread/Process started but never reaped, or a bare "
              "join() without timeout= on a shutdown path"),
    "RA804": ("durability-protocol",
              "tracked durable artifact written without the "
              "tmp+fsync+rename protocol, or committed after its "
              "manifest"),
    "RA805": ("unclosed-resource",
              "open/NamedTemporaryFile/Pipe result never closed and "
              "never handed off (report-only)"),
}

#: rules that need whole-program context: they only run under
#: ``repro lint --project`` (see ``project.py``)
PROJECT_RULES: FrozenSet[str] = frozenset({
    "RA502", "RA601",
    "RA700", "RA701", "RA702", "RA703", "RA704",
    "RA800", "RA801", "RA802", "RA803", "RA804", "RA805",
})

#: package directories whose hourly code must be a pure function of
#: (seed, hour) — wall-clock reads are banned inside them (RA201).
HOT_PACKAGES: FrozenSet[str] = frozenset(
    {"pipeline", "core", "traffic"})

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]*)\])?")


@dataclass(frozen=True, order=True)
class Violation:
    """One rule firing at a specific source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def rule_name(self) -> str:
        return RULES.get(self.code, ("unknown", ""))[0]

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} [{self.rule_name}] {self.message}")

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "rule": self.rule_name,
            "message": self.message,
        }


@dataclass(frozen=True)
class FunctionUnit:
    """One function as the project rules see it.

    The call-graph facts and the RA7xx/RA8xx sites all key on
    ``qualname``, so every extractor walks this one enumeration.
    """

    qualname: str                   # "f", "C.m", or "<module>"
    owner_class: Optional[str]
    body: Sequence[ast.stmt]


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _function_units(tree: ast.Module) -> List[FunctionUnit]:
    """Top-level defs, class methods, then the ``<module>`` pseudo-function.

    ``if`` blocks at module level are transparent (their defs and
    statements count as top-level) except ``if TYPE_CHECKING:``, which
    is skipped: nothing in it runs.  The remaining module-level
    statements form ``<module>``, so top-level calls (scripts,
    examples) still seed reachability.
    """
    units: List[FunctionUnit] = []
    module_stmts: List[ast.stmt] = []

    def scan_body(body: Sequence[ast.stmt],
                  owner_class: Optional[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = (node.name if owner_class is None
                            else f"{owner_class}.{node.name}")
                units.append(FunctionUnit(qualname, owner_class,
                                          node.body))
            elif owner_class is not None:
                continue  # only the methods of a class body are units
            elif isinstance(node, ast.ClassDef):
                scan_body(node.body, node.name)
            elif isinstance(node, ast.If):
                if not _is_type_checking(node.test):
                    scan_body(node.body, None)
                    scan_body(node.orelse, None)
            else:
                module_stmts.append(node)

    scan_body(tree.body, None)
    units.append(FunctionUnit("<module>", None, module_stmts))
    return units


@dataclass
class ModuleContext:
    """Everything the rules need to know about the file under analysis.

    One context is built per parsed file and handed to every consumer —
    the per-file checkers and, under ``--project``, the call-graph and
    site extractors — so the import map and the function enumeration
    are each computed once.
    """

    path: Path
    source: str
    tree: ast.Module
    display_path: str = ""

    def __post_init__(self) -> None:
        if not self.display_path:
            self.display_path = str(self.path)

    @property
    def is_hot_path(self) -> bool:
        """True when the file lives under a determinism-critical package."""
        return bool(HOT_PACKAGES.intersection(self.path.parts))

    @cached_property
    def imports(self) -> "ImportMap":
        return ImportMap().collect(self.tree)

    @cached_property
    def functions(self) -> List[FunctionUnit]:
        return _function_units(self.tree)


class Checker(ast.NodeVisitor):
    """Base class: an AST visitor that accumulates violations."""

    #: codes this checker can emit (used by ``--select`` filtering and
    #: by the fixture tests to map fixtures onto checkers)
    codes: Tuple[str, ...] = ()

    def __init__(self, context: ModuleContext) -> None:
        self.context = context
        self.violations: List[Violation] = []

    def report(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(Violation(
            path=self.context.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        ))

    def run(self) -> List[Violation]:
        self.visit(self.context.tree)
        return self.violations


@dataclass
class ImportMap:
    """Resolves local names to the modules / symbols they were bound to.

    Tracks ``import x.y as z`` and ``from x import y as z`` forms so the
    RNG checkers can recognise ``numpy.random`` and ``random`` access
    regardless of aliasing (``import numpy.random as npr``,
    ``from numpy.random import default_rng as rng_of`` …).
    """

    #: local name -> dotted module path ("np" -> "numpy")
    modules: Dict[str, str] = field(default_factory=dict)
    #: local name -> (source module, original symbol name)
    symbols: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    def collect(self, tree: ast.Module) -> "ImportMap":
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # un-aliased "import numpy.random" binds "numpy"
                    target = alias.name if alias.asname else local
                    self.modules[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports never hit stdlib/numpy
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.symbols[local] = (node.module, alias.name)
        return self

    def resolve_attribute(self, node: ast.expr) -> Optional[str]:
        """Dotted path for an expression like ``np.random.rand``.

        Returns e.g. ``"numpy.random.rand"`` or None when the base name
        is not a tracked import.
        """
        parts: List[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        base = cursor.id
        if base in self.modules:
            prefix = self.modules[base]
        elif base in self.symbols:
            module, original = self.symbols[base]
            prefix = f"{module}.{original}"
        else:
            return None
        return ".".join([prefix] + list(reversed(parts)))


def _snippet(node: ast.expr, limit: int = 40) -> str:
    """Short source rendering of an expression for messages."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        text = "<expr>"
    return text if len(text) <= limit else text[:limit - 3] + "..."


def suppressed_lines(source: str) -> Dict[int, Optional[FrozenSet[str]]]:
    """Map line numbers to the rule codes suppressed on that line.

    A bare ``# repro: noqa`` suppresses every rule (value ``None``);
    ``# repro: noqa[RA001, RA301]`` suppresses only the listed codes.
    """
    out: Dict[int, Optional[FrozenSet[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(text)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip())
    return out


def apply_suppressions(source: str,
                       violations: Sequence[Violation]) -> List[Violation]:
    """Drop violations whose line carries a matching noqa marker."""
    markers = suppressed_lines(source)
    kept: List[Violation] = []
    for violation in violations:
        codes = markers.get(violation.line, frozenset())
        if codes is None:  # bare noqa: everything on the line
            continue
        if violation.code in codes:
            continue
        kept.append(violation)
    return kept


def checker_classes() -> List[Type[Checker]]:
    """All registered checker classes (imported lazily to avoid cycles)."""
    from .docstrings import ModuleDocstringChecker
    from .hygiene import HotPathClockChecker, MutableDefaultChecker
    from .rng import RngDisciplineChecker

    return [RngDisciplineChecker, HotPathClockChecker,
            MutableDefaultChecker, ModuleDocstringChecker]
