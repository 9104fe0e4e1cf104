"""Per-module semantic facts and the conservative project call graph.

The project analyzer (``project.py``) parses every module once and asks
this module two questions about each:

* :func:`module_name_for` — what dotted module does this file define?
  (Derived structurally, by walking up through ``__init__.py`` package
  directories, so the extractor works on the real tree and on fixture
  trees alike.)
* :func:`extract_facts` — a :class:`ModuleFacts` summary: module-scope
  internal imports (for the RA601 layer contract), per-function call
  candidates (for the reachability that RA7xx, RA801/RA802 and RA804
  walk), and the file's ``# repro: noqa`` map so project rules can
  honour suppressions without re-reading source.

The call graph is *conservative* in the usual static-analysis sense:
edges exist only where a callee is resolvable by name (module-level
functions, imported symbols — including one level of package
re-exports — ``self.method()`` within a class, and class
instantiation, which edges to ``__init__``).  Calls through arbitrary
objects resolve to nothing and add no edges: a site reached only that
way is silent, a documented blind spot rather than a guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .base import ModuleContext, _is_type_checking, suppressed_lines


@dataclass(frozen=True)
class ImportFact:
    """One module-scope runtime import of an internal module."""

    target: str     # dotted module, e.g. "repro.core.training"
    lineno: int
    col: int


@dataclass
class ModuleFacts:
    """Everything the project rules need to know about one module."""

    module: str                         # dotted name ("repro.core.service")
    display_path: str
    internal_imports: Tuple[ImportFact, ...] = ()
    #: qualname ("f", "C.m", "<module>") -> dotted callee candidates
    functions: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: top-level name -> "function" | "class"
    defs: Dict[str, str] = field(default_factory=dict)
    #: imported symbol -> dotted origin, for re-export following
    symbol_imports: Dict[str, str] = field(default_factory=dict)
    #: lineno -> suppressed codes (None = bare noqa, all codes)
    suppressed: Dict[int, Optional[FrozenSet[str]]] = field(
        default_factory=dict)

    def is_suppressed(self, lineno: int, code: str) -> bool:
        """Does the noqa map silence ``code`` on ``lineno``?"""
        codes = self.suppressed.get(lineno, frozenset())
        return codes is None or code in codes


# -- module naming ------------------------------------------------------------

def module_name_for(path: Path) -> str:
    """Dotted module name for a file, derived from the package tree.

    Walks up while the parent directory is a package (has
    ``__init__.py``); a file outside any package is just its stem.
    """
    path = path.resolve()
    parts: List[str] = []
    if path.name != "__init__.py":
        parts.append(path.stem)
    cursor = path.parent
    while (cursor / "__init__.py").exists():
        parts.append(cursor.name)
        parent = cursor.parent
        if parent == cursor:
            break
        cursor = parent
    return ".".join(reversed(parts)) or path.stem


def _package_parts(module: str, is_init: bool) -> List[str]:
    """The package path relative imports resolve against."""
    parts = module.split(".")
    return parts if is_init else parts[:-1]


# -- extraction ---------------------------------------------------------------

class _Extractor:
    """Single pass over one module's AST producing :class:`ModuleFacts`."""

    def __init__(self, module: str, is_init: bool,
                 internal_roots: FrozenSet[str]):
        self.module = module
        self.package = _package_parts(module, is_init)
        self.internal_roots = internal_roots
        #: local name -> dotted target it was bound to by an import
        self.import_bindings: Dict[str, str] = {}
        self.symbol_imports: Dict[str, str] = {}
        self.internal_imports: List[ImportFact] = []
        self.defs: Dict[str, str] = {}

    # -- import resolution -------------------------------------------------

    def _absolute_module(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        anchor = self.package[:len(self.package) - (node.level - 1)]
        if not anchor and node.level > 1:
            return None  # relative import escaping the package tree
        if node.module:
            return ".".join(anchor + node.module.split("."))
        return ".".join(anchor) or None

    def _note_import(self, node: ast.stmt, target: str,
                     module_scope: bool) -> None:
        if module_scope and target.split(".")[0] in self.internal_roots:
            self.internal_imports.append(ImportFact(
                target=target, lineno=node.lineno,
                col=node.col_offset + 1))

    def _collect_import(self, node: ast.stmt, module_scope: bool) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                bound = alias.name if alias.asname else local
                self.import_bindings[local] = bound
                self._note_import(node, alias.name, module_scope)
        elif isinstance(node, ast.ImportFrom):
            module = self._absolute_module(node)
            if module is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                dotted = f"{module}.{alias.name}"
                self.import_bindings[local] = dotted
                self.symbol_imports[local] = dotted
                # "from repro import core" imports the submodule itself
                self._note_import(
                    node,
                    dotted if module.split(".")[0] in self.internal_roots
                    else module,
                    module_scope)

    # -- name/call resolution ----------------------------------------------

    def _dotted_for(self, node: ast.expr) -> Optional[str]:
        """Fully-dotted candidate for a Name/Attribute expression."""
        parts: List[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        base = self.import_bindings.get(cursor.id)
        if base is not None:
            return ".".join([base] + list(reversed(parts)))
        if cursor.id in self.defs:
            return ".".join([self.module, cursor.id]
                            + list(reversed(parts)))
        return None

    def _callee_candidate(self, node: ast.expr,
                          owner_class: Optional[str]) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self._dotted_for(node)
        if isinstance(node, ast.Attribute):
            if (owner_class is not None
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")):
                return f"{self.module}.{owner_class}.{node.attr}"
            return self._dotted_for(node)
        return None

    # -- per-function walk ---------------------------------------------------

    def _walk_function(self, fn_body: Sequence[ast.stmt],
                       owner_class: Optional[str]) -> Tuple[str, ...]:
        """Call candidates, in walk order; lazy imports extend resolution
        but are not layer edges (deliberate cycle-breaks happen in
        functions)."""
        calls: List[str] = []
        for stmt in fn_body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    candidate = self._callee_candidate(node.func,
                                                       owner_class)
                    if candidate is not None:
                        calls.append(candidate)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    self._collect_import(node, module_scope=False)
        return tuple(calls)

    # -- the module walk -----------------------------------------------------

    def extract(self, context: ModuleContext) -> ModuleFacts:
        # pass 1: module-scope imports and defs, so function walks can
        # resolve names
        def scan_top(body: List[ast.stmt]) -> None:
            for node in body:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    self._collect_import(node, module_scope=True)
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    self.defs[node.name] = "function"
                elif isinstance(node, ast.ClassDef):
                    self.defs[node.name] = "class"
                elif isinstance(node, ast.If):
                    if _is_type_checking(node.test):
                        # bindings still resolve names; the imports are
                        # not runtime layer edges
                        for sub in ast.walk(node):
                            if isinstance(sub, (ast.Import,
                                                ast.ImportFrom)):
                                self._collect_import(sub,
                                                     module_scope=False)
                    else:
                        scan_top(node.body)
                        scan_top(node.orelse)
                elif isinstance(node, ast.Try):
                    # `try: import x / except ImportError:` fallbacks
                    scan_top(node.body)
                    for handler in node.handlers:
                        scan_top(handler.body)
                    scan_top(node.orelse)
                    scan_top(node.finalbody)

        scan_top(context.tree.body)

        # pass 2: one walk per function unit
        functions = {unit.qualname: self._walk_function(unit.body,
                                                        unit.owner_class)
                     for unit in context.functions}

        return ModuleFacts(
            module=self.module,
            display_path=context.display_path,
            internal_imports=tuple(self.internal_imports),
            functions=functions,
            defs=self.defs,
            symbol_imports=self.symbol_imports,
            suppressed=suppressed_lines(context.source),
        )


def extract_facts(context: ModuleContext, module: str,
                  internal_roots: FrozenSet[str]) -> ModuleFacts:
    """Extract :class:`ModuleFacts` from one parsed module.

    ``module`` is the file's dotted name (:func:`module_name_for`).
    """
    extractor = _Extractor(module, context.path.name == "__init__.py",
                           internal_roots)
    return extractor.extract(context)


# -- the linked project graph -------------------------------------------------

#: a resolved function node: (module dotted name, qualname)
FunctionKey = Tuple[str, str]


class ProjectGraph:
    """All modules' facts linked into a resolvable call graph."""

    def __init__(self, modules: Dict[str, ModuleFacts]):
        self.modules = modules

    @classmethod
    def link(cls, facts: List[ModuleFacts]) -> "ProjectGraph":
        return cls({f.module: f for f in facts})

    def resolve_callable(self, dotted: str,
                         _depth: int = 0) -> Optional[FunctionKey]:
        """Map a dotted candidate to a known function, conservatively.

        Handles plain functions, methods, classes (→ ``__init__``), and
        one chain of package re-exports (``from repro.core import
        TipsyService`` where ``repro.core.__init__`` re-imports it).
        """
        if _depth > 8:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            module = self.modules.get(prefix)
            if module is None:
                continue
            rest = parts[cut:]
            return self._resolve_in_module(module, rest, _depth)
        return None

    def _resolve_in_module(self, module: ModuleFacts, rest: List[str],
                           depth: int) -> Optional[FunctionKey]:
        name = ".".join(rest)
        if name in module.functions:
            return (module.module, name)
        head = rest[0]
        kind = module.defs.get(head)
        if kind == "class":
            init = f"{head}.__init__"
            if len(rest) == 1 and init in module.functions:
                return (module.module, init)
            if len(rest) == 2:
                target = f"{head}.{rest[1]}"
                if target in module.functions:
                    return (module.module, target)
            return None
        if head in module.symbol_imports:
            chained = ".".join([module.symbol_imports[head]] + rest[1:])
            return self.resolve_callable(chained, depth + 1)
        return None

    def reachable_from(self, roots: List[FunctionKey]
                       ) -> Dict[FunctionKey, FunctionKey]:
        """BFS closure over call edges: node -> the root it came from."""
        origin: Dict[FunctionKey, FunctionKey] = {}
        queue: List[FunctionKey] = []
        for root in roots:
            if root not in origin:
                origin[root] = root
                queue.append(root)
        while queue:
            key = queue.pop(0)
            module = self.modules.get(key[0])
            calls = module.functions.get(key[1], ()) if module else ()
            for candidate in calls:
                callee = self.resolve_callable(candidate)
                if callee is not None and callee not in origin:
                    origin[callee] = origin[key]
                    queue.append(callee)
        return origin
