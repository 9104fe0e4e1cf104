"""Hot-path hygiene checkers (RA201, RA301).

RA201 — wall-clock reads inside determinism-critical packages.  Every
hourly quantity in ``pipeline/``, ``core/`` and ``traffic/`` must be a
pure function of ``(scenario seed, hour)``; a ``time.time()`` or
``datetime.now()`` on that path makes output depend on when the run
happened, which breaks bit-identical replay.  Timing *instrumentation*
belongs in ``repro.obs`` spans (the clock is injected there) and
performance numbers come from ``benchmarks/e2e``, both outside the hot
set.

RA301 — mutable default argument values.  A ``def f(x, acc=[])`` default
is evaluated once at import and shared by every call — a classic source
of cross-run (and cross-worker) state leakage.  Use ``None`` plus an
in-body default, or a dataclass ``field(default_factory=...)``.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Tuple

from .base import HOT_PACKAGES, Checker, Violation

#: dotted call paths that read the wall clock
_WALL_CLOCK: FrozenSet[str] = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: constructor names whose call as a default produces a fresh-but-shared
#: mutable object
_MUTABLE_FACTORIES: FrozenSet[str] = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque",
    "OrderedDict", "Counter",
})


class HotPathClockChecker(Checker):
    """RA201: no wall-clock reads inside hot-path packages."""

    codes: Tuple[str, ...] = ("RA201",)

    def run(self) -> List[Violation]:
        if not self.context.is_hot_path:
            return self.violations  # rule only applies on the hot path
        return super().run()

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.context.imports.resolve_attribute(node.func)
        if dotted in _WALL_CLOCK:
            packages = ", ".join(sorted(HOT_PACKAGES))
            self.report(
                node, "RA201",
                f"`{dotted}` reads the wall clock inside a "
                f"determinism-critical package ({packages}); hot-path "
                f"output must be a pure function of (seed, hour) — time "
                f"it with a repro.obs span or measure it from "
                f"benchmarks/e2e")
        self.generic_visit(node)


class MutableDefaultChecker(Checker):
    """RA301: no mutable default argument values, anywhere."""

    codes: Tuple[str, ...] = ("RA301",)

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            return name in _MUTABLE_FACTORIES
        return False

    def _check_args(self, node: ast.arguments, owner: str) -> None:
        positional = node.posonlyargs + node.args
        defaults = node.defaults
        for arg, default in zip(positional[len(positional) - len(defaults):],
                                defaults):
            if self._is_mutable(default):
                self.report(
                    default, "RA301",
                    f"mutable default for `{arg.arg}` in `{owner}` is "
                    f"shared across calls; default to None and create "
                    f"the object in the body")
        for arg, kw_default in zip(node.kwonlyargs, node.kw_defaults):
            if kw_default is not None and self._is_mutable(kw_default):
                self.report(
                    kw_default, "RA301",
                    f"mutable default for `{arg.arg}` in `{owner}` is "
                    f"shared across calls; default to None and create "
                    f"the object in the body")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_args(node.args, node.name)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_args(node.args, node.name)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_args(node.args, "<lambda>")
        self.generic_visit(node)
