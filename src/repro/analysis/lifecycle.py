"""Concurrency-lifecycle analysis (RA801, RA802, RA803, RA805).

PR 9 made the reproduction a long-running sharded daemon, which means
the failure modes that matter are no longer "wrong number" but "stuck
process": two locks taken in opposite orders on different paths, a
blocking ``recv``/``join`` executed while a query lock is held, a
worker thread started and never joined, a descriptor leaked on an
error path.  None of those are visible to per-file pattern rules, so
this module adds a fourth project-mode wave over the conservative
call graph:

* **RA801** lock-order deadlock: every ``with <lock>:`` acquisition is
  recorded together with the locks already held (directly, and through
  resolvable calls made while holding).  The resulting
  acquired-while-holding graph is searched for cycles; each edge on a
  cycle is reported at its acquisition site, naming the opposite-order
  site so both halves of the deadlock are in the message.
* **RA802** blocking call under lock: ``join()``/``recv()``/``get()``/
  ``wait()``/``time.sleep``/``open()`` lexically inside a ``with
  <lock>:`` body, or transitively reachable from a call made while the
  lock is held.  A ``timeout=`` keyword (or a bounded positional
  ``join(5)``) exempts the call; helpers whose name ends in
  ``_locked`` — the repo's caller-holds-lock convention from RA502 —
  are exempt from the *transitive* report, since the suffix documents
  deliberate under-lock work.
* **RA803** thread/process lifecycle: a ``Thread``/``Process``
  constructed and ``start()``-ed in a scope with no ``join``/
  ``terminate``/``kill`` anywhere in that scope, and a bare
  ``join()`` without ``timeout=`` inside a shutdown-path function
  (``stop``/``shutdown``/``close``/…) — the exact hang the serve
  daemon's escalation ladder exists to prevent.
* **RA805** (report-only) unclosed resources: an
  ``open``/``os.open``/``NamedTemporaryFile``/``Pipe`` result bound to
  a local that never escapes the function and is never closed.

Like RA502 and the RA7xx rules, extraction is per file (plain
:class:`LifeSite` records); everything cross-module happens at link
time in :func:`check_lifecycle`, which honours ``# repro: noqa[RAxxx]``
through :class:`~repro.analysis.callgraph.ModuleFacts`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (Dict, FrozenSet, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from .base import ImportMap, ModuleContext, Violation
from .callgraph import FunctionKey, ModuleFacts, ProjectGraph
from .locks import _is_lock_name

#: attribute calls that block unboundedly when called with no timeout
_BLOCKING_ATTRS: FrozenSet[str] = frozenset({
    "join", "recv", "recv_bytes", "get", "wait",
})

#: dotted calls that block (or sleep) regardless of receiver
_BLOCKING_DOTTED: FrozenSet[str] = frozenset({
    "time.sleep",
})

#: thread/process constructors RA803 tracks
_THREAD_CTORS: FrozenSet[str] = frozenset({"Thread", "Process"})

#: function names that are shutdown paths for the join-timeout rule
_SHUTDOWN_NAMES: FrozenSet[str] = frozenset({
    "stop", "shutdown", "close", "terminate", "kill",
    "__exit__", "__del__",
})

#: receiver-name fragments that mark a join target as thread-like even
#: when the constructor is out of view (e.g. handed in from elsewhere)
_THREADISH_FRAGMENTS: Tuple[str, ...] = ("thread", "process", "proc",
                                         "worker")

#: resource constructors RA805 tracks (attribute-name forms)
_RESOURCE_ATTRS: FrozenSet[str] = frozenset({
    "NamedTemporaryFile", "Pipe",
})


def _lock_identity(expr: ast.expr,
                   owner_class: Optional[str]) -> Optional[str]:
    """Stable identity for a lock-like ``with`` context expression.

    ``self._lock`` inside class ``C`` becomes ``C._lock`` so every
    method of the class (and every instance) maps to one node in the
    order graph; subscripts are stripped (``self._locks[i]`` and
    ``self._locks[j]`` are the same *level* in a lock hierarchy, and
    same-identity edges are ignored rather than reported).  Returns
    None for non-lock expressions.
    """
    node: ast.expr = expr.func if isinstance(expr, ast.Call) else expr
    while isinstance(node, ast.Subscript):
        node = node.value
    parts: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
        while isinstance(cursor, ast.Subscript):
            cursor = cursor.value
    parts.reverse()
    if not isinstance(cursor, ast.Name):
        return None
    if cursor.id in ("self", "cls"):
        if not parts or not _is_lock_name(parts[0]):
            return None
        return f"{owner_class or 'self'}.{parts[0]}"
    chain = [cursor.id] + parts
    for index, part in enumerate(chain):
        if _is_lock_name(part):
            return ".".join(chain[:index + 1])
    return None


def _receiver_desc(node: ast.expr) -> Optional[str]:
    """``self.X`` / bare-name receiver of a method call, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")):
        return f"self.{node.attr}"
    return None


def _has_timeout(node: ast.Call) -> bool:
    return any(kw.arg in ("timeout", "block") for kw in node.keywords)


@dataclass(frozen=True)
class LifeSite:
    """One lifecycle fact inside one function.

    ``kind`` is one of:

    * ``acquire`` — a lock acquisition; ``name`` is the lock identity,
      ``held`` the identities already held at that point;
    * ``blocking`` — an unbounded blocking call; ``name`` describes it,
      ``held`` the locks held lexically (may be empty — link time needs
      every blocking site to resolve transitive RA802);
    * ``held-call`` — a call made while ``held`` is non-empty; ``name``
      is the raw callee text resolved against the graph at link time;
    * ``ctor`` / ``start`` / ``reap`` / ``join-bare`` — thread
      lifecycle events on receiver ``name`` (``detail`` carries the
      constructor kind for ``ctor``);
    * ``resource`` — an unclosed resource; ``name`` is the local,
      ``detail`` the constructor.
    """

    function: str        # qualname within the module ("f", "C.m", "<module>")
    kind: str
    lineno: int
    col: int             # 1-based, like Violation
    name: str
    held: Tuple[str, ...] = ()
    detail: str = ""


# -- extraction ---------------------------------------------------------------

class _LifeScanner:
    """Order-aware walk of one function body collecting :class:`LifeSite`.

    Tracks the stack of held lock identities through nested ``with``
    statements and the local resource/thread bindings in statement
    order, so the walk is hand-rolled like the RA7xx scanner rather
    than a plain ``ast.walk``.
    """

    def __init__(self, qualname: str, owner_class: Optional[str],
                 imports: ImportMap, sites: List[LifeSite]) -> None:
        self.qualname = qualname
        self.owner_class = owner_class
        self.imports = imports
        self.sites = sites
        self.held: List[str] = []
        #: local name -> constructor description ("open", "Pipe", ...)
        self.resources: Dict[str, Tuple[str, int, int]] = {}
        self.closed: Set[str] = set()
        self.escaped: Set[str] = set()

    def _site(self, node: ast.AST, kind: str, name: str,
              held: Tuple[str, ...] = (), detail: str = "") -> None:
        self.sites.append(LifeSite(
            function=self.qualname, kind=kind,
            lineno=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            name=name, held=held, detail=detail))

    # -- call classification -------------------------------------------------

    def _dotted(self, node: ast.expr) -> Optional[str]:
        return self.imports.resolve_attribute(node)

    def _raw_callee(self, func: ast.expr) -> Optional[str]:
        """Link-time-resolvable callee text, or None."""
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            if (isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls")):
                return f"self.{func.attr}"
            parts: List[str] = []
            cursor: ast.expr = func
            while isinstance(cursor, ast.Attribute):
                parts.append(cursor.attr)
                cursor = cursor.value
            if isinstance(cursor, ast.Name):
                return ".".join([cursor.id] + list(reversed(parts)))
        return None

    def _blocking_desc(self, node: ast.Call) -> Optional[str]:
        """Human description when the call blocks unboundedly."""
        if _has_timeout(node):
            return None
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                return "file IO `open(...)`"
            return None
        dotted = self._dotted(func)
        if dotted in _BLOCKING_DOTTED:
            return f"`{dotted}(...)`"
        if isinstance(func, ast.Attribute) \
                and func.attr in _BLOCKING_ATTRS and not node.args:
            # zero positional args: excludes str.join(xs), dict.get(k),
            # and the bounded thread.join(5) form in one stroke
            receiver = _receiver_desc(func.value)
            shown = receiver if receiver is not None else "<obj>"
            return f"`{shown}.{func.attr}()`"
        return None

    def _call(self, node: ast.Call) -> None:
        desc = self._blocking_desc(node)
        if desc is not None:
            self._site(node, "blocking", desc, held=tuple(self.held))
        if self.held:
            raw = self._raw_callee(node.func)
            if raw is not None:
                self._site(node, "held-call", raw,
                           held=tuple(self.held))
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = _receiver_desc(func.value)
            if receiver is not None:
                if func.attr == "start" and not node.args:
                    self._site(node, "start", receiver)
                elif func.attr in ("join", "terminate", "kill"):
                    self._site(node, "reap", receiver)
                    if (func.attr == "join" and not node.args
                            and not _has_timeout(node)):
                        self._site(node, "join-bare", receiver)
                elif func.attr == "close" and isinstance(func.value,
                                                         ast.Name):
                    self.closed.add(func.value.id)
        dotted = self._dotted(func)
        if dotted == "os.close":
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    self.closed.add(arg.id)

    def _resource_ctor(self, node: ast.expr) -> Optional[str]:
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            return "open"
        dotted = self._dotted(func)
        if dotted == "os.open":
            return "os.open"
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        if name in _RESOURCE_ATTRS:
            return name
        return None

    def _thread_ctor(self, node: ast.expr) -> Optional[str]:
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        return name if name in _THREAD_CTORS else None

    # -- expressions ---------------------------------------------------------

    def _mark_escapes(self, node: ast.expr) -> None:
        # a name used only as a method receiver (`f.read()`) has not
        # escaped; a name passed, returned, yielded, aliased, or put in
        # a container has
        receivers: Set[int] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(
                    sub.value, ast.Name):
                receivers.add(id(sub.value))
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and id(sub) not in receivers):
                self.escaped.add(sub.id)

    def _expr(self, node: ast.expr) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._call(sub)
                # a tracked resource passed as an argument changes
                # ownership: closing becomes the callee's business
                for arg in sub.args:
                    self._mark_escapes(arg)
                for keyword in sub.keywords:
                    self._mark_escapes(keyword.value)
            elif isinstance(sub, (ast.Yield, ast.YieldFrom)):
                value = sub.value
                if value is not None:
                    self._mark_escapes(value)

    # -- statements ----------------------------------------------------------

    def scan(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _bind_resource(self, target: ast.expr, ctor: str,
                       node: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.resources[target.id] = (
                ctor, getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1)
            self.closed.discard(target.id)
            self.escaped.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # a, b = multiprocessing.Pipe(): both ends need closing
            for element in target.elts:
                self._bind_resource(element, ctor, node)

    def _assign(self, targets: Sequence[ast.expr],
                value: ast.expr, node: ast.AST) -> None:
        self._expr(value)
        ctor = self._resource_ctor(value)
        thread = self._thread_ctor(value)
        for target in targets:
            receiver = _receiver_desc(target) if thread else None
            if thread is not None and receiver is not None:
                self._site(node, "ctor", receiver, detail=thread)
            if ctor is not None:
                self._bind_resource(target, ctor, node)
            elif isinstance(target, ast.Name):
                # rebinding drops the old tracking (conservative)
                self.resources.pop(target.id, None)
            if not isinstance(target, ast.Name):
                self._expr(target)
        if ctor is None and thread is None:
            # `alias = f` keeps the object alive elsewhere
            self._mark_escapes(value)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value, stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign([stmt.target], stmt.value, stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value)
                self._mark_escapes(stmt.value)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt)
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
        elif isinstance(stmt, ast.Try):
            self.scan(stmt.body)
            for handler in stmt.handlers:
                self.scan(handler.body)
            self.scan(stmt.orelse)
            self.scan(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # nested defs run later (often on another thread): locks
            # held here are NOT held there, so scan with a fresh stack;
            # sites attribute to the enclosing function like RA7xx
            nested = _LifeScanner(self.qualname, self.owner_class,
                                  self.imports, self.sites)
            nested.scan(stmt.body)
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    nested = _LifeScanner(self.qualname, self.owner_class,
                                          self.imports, self.sites)
                    nested.scan(item.body)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)

    def _with(self, stmt: "ast.With | ast.AsyncWith") -> None:
        pushed = 0
        for item in stmt.items:
            identity = _lock_identity(item.context_expr, self.owner_class)
            if identity is not None:
                self._site(item.context_expr, "acquire", identity,
                           held=tuple(self.held))
                self.held.append(identity)
                pushed += 1
                continue
            self._expr(item.context_expr)
            if item.optional_vars is not None and isinstance(
                    item.optional_vars, ast.Name):
                # `with open(...) as f:` — context-managed, not tracked
                self.resources.pop(item.optional_vars.id, None)
        self.scan(stmt.body)
        del self.held[len(self.held) - pushed:]

    def finish(self) -> None:
        """Emit RA805 sites for resources never closed or handed off."""
        for name, (ctor, lineno, col) in sorted(self.resources.items()):
            if name in self.closed or name in self.escaped:
                continue
            self.sites.append(LifeSite(
                function=self.qualname, kind="resource",
                lineno=lineno, col=col, name=name, detail=ctor))


def extract_life_sites(context: ModuleContext) -> List[LifeSite]:
    """All lifecycle sites in one module, grouped by function."""
    sites: List[LifeSite] = []
    for unit in context.functions:
        scanner = _LifeScanner(unit.qualname, unit.owner_class,
                               context.imports, sites)
        scanner.scan(unit.body)
        scanner.finish()
    return sites


# -- the check ----------------------------------------------------------------

@dataclass(frozen=True)
class _Edge:
    """First acquired-while-holding edge seen for an ordered lock pair."""

    module: str
    display_path: str
    function: str
    lineno: int
    col: int
    #: for transitive edges: where the far acquisition actually happens
    via: str = ""


def _resolve_raw_callee(graph: ProjectGraph, facts: ModuleFacts,
                        function: str, raw: str
                        ) -> Optional[FunctionKey]:
    """Resolve a :class:`LifeSite` held-call against the graph."""
    if raw.startswith("self."):
        if "." not in function:
            return None
        owner = function.split(".")[0]
        return graph.resolve_callable(
            f"{facts.module}.{owner}.{raw[len('self.'):]}")
    head = raw.split(".")[0]
    if head in facts.defs:
        key = graph.resolve_callable(f"{facts.module}.{raw}")
        if key is not None:
            return key
    if head in facts.symbol_imports:
        chained = ".".join([facts.symbol_imports[head]]
                           + raw.split(".")[1:])
        return graph.resolve_callable(chained)
    return graph.resolve_callable(raw)


def _qualify(module: str, identity: str) -> str:
    """Namespace a lock identity by module so unrelated same-named
    locks in different files never alias into a false cycle."""
    return f"{module}:{identity}"


def _short(identity: str) -> str:
    return identity.split(":", 1)[1] if ":" in identity else identity


def _find_path(adjacency: Mapping[str, Set[str]], start: str,
               goal: str) -> Optional[List[str]]:
    """Shortest lock-identity path ``start -> ... -> goal`` (BFS)."""
    if start == goal:
        return [start]
    parents: Dict[str, str] = {}
    queue: List[str] = [start]
    seen: Set[str] = {start}
    while queue:
        node = queue.pop(0)
        for succ in sorted(adjacency.get(node, set())):
            if succ in seen:
                continue
            parents[succ] = node
            if succ == goal:
                path = [goal]
                while path[-1] != start:
                    path.append(parents[path[-1]])
                return list(reversed(path))
            seen.add(succ)
            queue.append(succ)
    return None


def _index_sites(
        graph: ProjectGraph,
        sites_by_module: Mapping[str, Sequence[LifeSite]],
) -> Tuple[Dict[FunctionKey, List[LifeSite]],
           Dict[FunctionKey, List[LifeSite]],
           List[Tuple[ModuleFacts, LifeSite, FunctionKey]]]:
    """(acquires per function, blocking per function, resolved held-calls)."""
    acquires: Dict[FunctionKey, List[LifeSite]] = {}
    blocking: Dict[FunctionKey, List[LifeSite]] = {}
    held_calls: List[Tuple[ModuleFacts, LifeSite, FunctionKey]] = []
    for module_name in sorted(sites_by_module):
        facts = graph.modules.get(module_name)
        if facts is None:
            continue
        for site in sites_by_module[module_name]:
            key: FunctionKey = (module_name, site.function)
            if site.kind == "acquire":
                acquires.setdefault(key, []).append(site)
            elif site.kind == "blocking":
                blocking.setdefault(key, []).append(site)
            elif site.kind == "held-call":
                target = _resolve_raw_callee(graph, facts,
                                             site.function, site.name)
                if target is not None:
                    held_calls.append((facts, site, target))
    return acquires, blocking, held_calls


def _check_lock_order(
        graph: ProjectGraph,
        acquires: Mapping[FunctionKey, Sequence[LifeSite]],
        held_calls: Sequence[Tuple[ModuleFacts, LifeSite, FunctionKey]],
) -> List[Violation]:
    """RA801: cycles in the acquired-while-holding graph."""
    edges: Dict[Tuple[str, str], _Edge] = {}

    def add_edge(held: str, acquired: str, facts: ModuleFacts,
                 site: LifeSite, via: str = "") -> None:
        if held == acquired:
            return  # re-entrant/same-level acquisition is not an order
        pair = (held, acquired)
        if pair not in edges:
            edges[pair] = _Edge(
                module=facts.module, display_path=facts.display_path,
                function=site.function, lineno=site.lineno,
                col=site.col, via=via)

    for key in sorted(acquires):
        facts = graph.modules[key[0]]
        for site in acquires[key]:
            for held in site.held:
                add_edge(_qualify(key[0], held),
                         _qualify(key[0], site.name), facts, site)

    closures: Dict[FunctionKey, Dict[FunctionKey, FunctionKey]] = {}
    for facts, site, target in held_calls:
        if target not in closures:
            closures[target] = graph.reachable_from([target])
        for reached in sorted(closures[target]):
            for acquired in acquires.get(reached, ()):
                far = graph.modules[reached[0]]
                via = (f"`{acquired.name}` acquired at "
                       f"{far.display_path}:{acquired.lineno} in "
                       f"`{acquired.function}`")
                for held in site.held:
                    add_edge(_qualify(facts.module, held),
                             _qualify(reached[0], acquired.name),
                             facts, site, via=via)

    adjacency: Dict[str, Set[str]] = {}
    for held, acquired in edges:
        adjacency.setdefault(held, set()).add(acquired)

    violations: List[Violation] = []
    for (held, acquired) in sorted(edges):
        edge = edges[(held, acquired)]
        back = _find_path(adjacency, acquired, held)
        if back is None:
            continue
        facts = graph.modules.get(edge.module)
        if facts is not None and facts.is_suppressed(edge.lineno,
                                                     "RA801"):
            continue
        reverse = edges.get((acquired, held))
        if reverse is not None:
            opposite = (f"the opposite order is taken at "
                        f"{reverse.display_path}:{reverse.lineno} in "
                        f"`{reverse.function}`"
                        + (f" ({reverse.via})" if reverse.via else ""))
        else:
            chain = " -> ".join(_short(node) for node in back)
            opposite = (f"the cycle closes through {chain} -> "
                        f"{_short(held)}")
        where = (f" ({edge.via})" if edge.via else "")
        violations.append(Violation(
            path=edge.display_path, line=edge.lineno, col=edge.col,
            code="RA801",
            message=(f"lock-order cycle: `{_short(acquired)}` is "
                     f"acquired while `{_short(held)}` is held in "
                     f"`{edge.function}`{where}, but {opposite}; pick "
                     "one global acquisition order for these locks")))
    return violations


def _check_blocking(
        graph: ProjectGraph,
        blocking: Mapping[FunctionKey, Sequence[LifeSite]],
        held_calls: Sequence[Tuple[ModuleFacts, LifeSite, FunctionKey]],
) -> List[Violation]:
    """RA802: blocking calls executed while a lock is held."""
    violations: List[Violation] = []
    reported: Set[Tuple[str, int, str]] = set()

    for key in sorted(blocking):
        facts = graph.modules[key[0]]
        for site in blocking[key]:
            if not site.held:
                continue
            if facts.is_suppressed(site.lineno, "RA802"):
                continue
            marker = (facts.display_path, site.lineno, site.held[-1])
            if marker in reported:
                continue
            reported.add(marker)
            violations.append(Violation(
                path=facts.display_path, line=site.lineno,
                col=site.col, code="RA802",
                message=(f"blocking {site.name} inside `with "
                         f"{site.held[-1]}:` in `{site.function}` can "
                         "stall every thread contending for the lock; "
                         "move it outside the critical section or "
                         "bound it with `timeout=`")))

    closures: Dict[FunctionKey, Dict[FunctionKey, FunctionKey]] = {}
    for facts, call_site, target in held_calls:
        if target not in closures:
            closures[target] = graph.reachable_from([target])
        for reached in sorted(closures[target]):
            # `_locked`-suffixed helpers document deliberate
            # under-lock work (the RA502 convention): exempt
            if reached[1].split(".")[-1].endswith("_locked"):
                continue
            far = graph.modules[reached[0]]
            for site in blocking.get(reached, ()):
                if site.held:
                    continue  # already reported directly above
                if far.is_suppressed(site.lineno, "RA802"):
                    continue
                lock = call_site.held[-1]
                marker = (far.display_path, site.lineno, lock)
                if marker in reported:
                    continue
                reported.add(marker)
                violations.append(Violation(
                    path=far.display_path, line=site.lineno,
                    col=site.col, code="RA802",
                    message=(f"blocking {site.name} in "
                             f"`{site.function}` runs while `{lock}` "
                             "is held (called via "
                             f"{facts.display_path}:{call_site.lineno} "
                             f"in `{call_site.function}`); move it off "
                             "the locked path, bound it with "
                             "`timeout=`, or suffix the helper "
                             "`_locked` if holding the lock here is "
                             "deliberate")))
    return violations


def _scope_for(site: LifeSite) -> str:
    """Grouping scope for a thread receiver: the class for ``self.X``
    (constructed in ``__init__``, reaped in ``stop``), the function
    for locals."""
    if site.name.startswith("self.") and "." in site.function:
        return site.function.split(".")[0]
    return site.function


def _check_thread_lifecycle(
        graph: ProjectGraph,
        sites_by_module: Mapping[str, Sequence[LifeSite]],
) -> List[Violation]:
    """RA803: started-but-never-reaped and unbounded shutdown joins."""
    violations: List[Violation] = []
    for module_name in sorted(sites_by_module):
        facts = graph.modules.get(module_name)
        if facts is None:
            continue
        ctors: Dict[Tuple[str, str], LifeSite] = {}
        starts: Dict[Tuple[str, str], LifeSite] = {}
        reaped: Set[Tuple[str, str]] = set()
        bare_joins: List[LifeSite] = []
        for site in sites_by_module[module_name]:
            group = (_scope_for(site), site.name)
            if site.kind == "ctor":
                ctors.setdefault(group, site)
            elif site.kind == "start":
                starts.setdefault(group, site)
            elif site.kind == "reap":
                reaped.add(group)
            elif site.kind == "join-bare":
                bare_joins.append(site)
        for group in sorted(starts):
            ctor = ctors.get(group)
            if ctor is None or group in reaped:
                continue
            start = starts[group]
            if facts.is_suppressed(start.lineno, "RA803"):
                continue
            scope, receiver = group
            violations.append(Violation(
                path=facts.display_path, line=start.lineno,
                col=start.col, code="RA803",
                message=(f"`{receiver}` ({ctor.detail}) is started but "
                         f"never joined, terminated, or killed in "
                         f"`{scope}`; reap it on the shutdown path so "
                         "exits cannot leak a live "
                         f"{ctor.detail.lower()}")))
        for site in bare_joins:
            terminal = site.function.split(".")[-1]
            if terminal not in _SHUTDOWN_NAMES:
                continue
            group = (_scope_for(site), site.name)
            threadish = group in ctors or any(
                fragment in site.name.lower()
                for fragment in _THREADISH_FRAGMENTS)
            if not threadish:
                continue
            if facts.is_suppressed(site.lineno, "RA803"):
                continue
            violations.append(Violation(
                path=facts.display_path, line=site.lineno,
                col=site.col, code="RA803",
                message=(f"`{site.name}.join()` without `timeout=` on "
                         f"shutdown path `{site.function}` hangs "
                         "forever if the worker is wedged; join with "
                         "a timeout and escalate (terminate/kill, "
                         "then surface the stuck worker as an "
                         "error)")))
    return violations


def _check_resources(
        graph: ProjectGraph,
        sites_by_module: Mapping[str, Sequence[LifeSite]],
) -> List[Violation]:
    """RA805: resources that never escape and are never closed."""
    violations: List[Violation] = []
    for module_name in sorted(sites_by_module):
        facts = graph.modules.get(module_name)
        if facts is None:
            continue
        for site in sites_by_module[module_name]:
            if site.kind != "resource":
                continue
            if facts.is_suppressed(site.lineno, "RA805"):
                continue
            violations.append(Violation(
                path=facts.display_path, line=site.lineno,
                col=site.col, code="RA805",
                message=(f"`{site.detail}(...)` result `{site.name}` "
                         f"is never closed in `{site.function}` and "
                         "never leaves it; close it on every path or "
                         "use a `with` block")))
    return violations


def check_lifecycle(
        graph: ProjectGraph,
        sites_by_module: Mapping[str, Sequence[LifeSite]],
) -> List[Violation]:
    """Run RA801/RA802/RA803/RA805 over the linked project graph."""
    acquires, blocking, held_calls = _index_sites(graph, sites_by_module)
    violations = _check_lock_order(graph, acquires, held_calls)
    violations.extend(_check_blocking(graph, blocking, held_calls))
    violations.extend(_check_thread_lifecycle(graph, sites_by_module))
    violations.extend(_check_resources(graph, sites_by_module))
    return violations


__all__: Tuple[str, ...] = ("LifeSite", "extract_life_sites",
                            "check_lifecycle")
