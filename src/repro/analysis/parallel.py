"""Parallel-safety checkers (RA101, RA102).

Everything handed to a ``ProcessPoolExecutor`` (or ``multiprocessing``
pool) crosses a pickle boundary.  Lambdas and functions defined inside
another function are not picklable, so dispatching one does not fail at
review time — it fails at runtime, and only on the parallel path.
These rules make the failure a lint error instead:

* RA101 — a ``lambda`` passed as the callable of a pool dispatch
  (``submit``/``map``/``apply_async`` …) or as an ``initializer=``;
* RA102 — a *locally defined* function (a closure) passed the same way.

The shard workers of ``repro.serve`` obey the same contract: their
process target (``shard_worker_main``) is module-level by construction.

Heuristics: ``submit``/``apply``/``apply_async``/``imap*``/``starmap*``
calls are always checked; bare ``.map(...)`` is only checked when the
receiver's name mentions ``pool`` or ``executor`` (``.map`` is too
common an API elsewhere to check unconditionally).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional, Set, Tuple

from .base import Checker, Violation

#: attribute calls always treated as a pool dispatch
_DISPATCH_ALWAYS: FrozenSet[str] = frozenset({
    "submit", "apply", "apply_async", "imap", "imap_unordered",
    "starmap", "starmap_async", "map_async",
})

#: attribute calls treated as a dispatch only for pool-ish receivers
_DISPATCH_POOLISH: FrozenSet[str] = frozenset({"map"})

#: constructors whose ``initializer=`` kwarg also crosses the boundary
_POOL_CONSTRUCTORS: FrozenSet[str] = frozenset({
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
})


def _receiver_is_poolish(node: ast.expr) -> bool:
    """True when the receiver's name suggests an executor or pool."""
    name: Optional[str] = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Call):
        return _receiver_is_poolish(node.func)
    if name is None:
        return False
    lowered = name.lower()
    return "pool" in lowered or "executor" in lowered


class PoolBoundaryChecker(Checker):
    """RA101 (lambda across pool), RA102 (closure across pool)."""

    codes: Tuple[str, ...] = ("RA101", "RA102")

    def run(self) -> List[Violation]:
        # names of functions defined *inside* the current function-scope
        # stack — dispatching one of these is RA102
        self._local_funcs: List[Set[str]] = []
        # local names bound to lambda expressions, same scoping
        self._local_lambdas: List[Set[str]] = []
        return super().run()

    # -- scope bookkeeping -------------------------------------------------

    def _enter_function(self, node: ast.AST) -> None:
        self._local_funcs.append(set())
        self._local_lambdas.append(set())
        self.generic_visit(node)
        self._local_funcs.pop()
        self._local_lambdas.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._local_funcs:
            self._local_funcs[-1].add(node.name)
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        if self._local_funcs:
            self._local_funcs[-1].add(node.name)
        self._enter_function(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._local_lambdas and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._local_lambdas[-1].add(target.id)
        self.generic_visit(node)

    def _is_local_function(self, name: str) -> bool:
        return any(name in scope for scope in self._local_funcs)

    def _is_local_lambda(self, name: str) -> bool:
        return any(name in scope for scope in self._local_lambdas)

    # -- dispatch detection ------------------------------------------------

    def _check_callable_arg(self, node: ast.expr, how: str) -> None:
        if isinstance(node, ast.Lambda):
            self.report(
                node, "RA101",
                f"lambda {how} cannot be pickled into a worker process; "
                f"define a module-level function instead")
        elif isinstance(node, ast.Name):
            if self._is_local_lambda(node.id):
                self.report(
                    node, "RA101",
                    f"`{node.id}` is bound to a lambda and {how}; "
                    f"lambdas cannot be pickled into a worker process")
            elif self._is_local_function(node.id):
                self.report(
                    node, "RA102",
                    f"`{node.id}` is defined inside a function and {how}; "
                    f"closures cannot be pickled — lift it to module "
                    f"level")

    def visit_Call(self, node: ast.Call) -> None:
        # pool.submit(fn, ...) / pool.imap(fn, ...) / executor.map(fn, ...)
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            is_dispatch = attr in _DISPATCH_ALWAYS or (
                attr in _DISPATCH_POOLISH
                and _receiver_is_poolish(node.func.value))
            if is_dispatch and node.args:
                self._check_callable_arg(
                    node.args[0], f"passed to `.{attr}(...)`")
        # ProcessPoolExecutor(initializer=...) / Pool(initializer=...)
        dotted = self.context.imports.resolve_attribute(node.func)
        if dotted is None and isinstance(node.func, ast.Name):
            resolved = self.context.imports.symbols.get(node.func.id)
            if resolved is not None:
                dotted = f"{resolved[0]}.{resolved[1]}"
        if dotted in _POOL_CONSTRUCTORS:
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    self._check_callable_arg(
                        keyword.value, "passed as `initializer=`")
        self.generic_visit(node)
