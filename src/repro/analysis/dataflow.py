"""Interprocedural determinism & numeric-safety dataflow (RA700-RA704).

The repo's load-bearing claims are *bit-identical equivalences*:
a sharded daemon equals one service, a long-running window equals a
fresh one, snapshot/restore equals an uninterrupted service.  Each holds
only while every function on the contract path is free of order- and
platform-dependence.  This module makes those paths explicit and
checkable:

1. a ``[tool.repro.determinism]`` table in ``pyproject.toml`` names
   each contract's *entry points* (functions, ``Class.method`` pairs,
   classes, or whole modules/packages)::

       [tool.repro.determinism]
       exempt = ["repro.obs"]          # instrumentation, not results
       [tool.repro.determinism.contracts]
       sharded-serving   = ["repro.serve.worker.shard_worker_main"]
       snapshot-restore  = ["repro.store"]

2. :func:`extract_det_sites` scans each module once for *sites* —
   expressions whose value or visible effect can depend on iteration
   order, float summation order, platform dtype defaults, or ambient
   process state;

3. :func:`check_determinism` resolves the entry points against the
   conservative call graph (``callgraph.ProjectGraph``), computes the
   reachable closure, and reports only the sites inside it.  A site in
   a function no contract reaches is silent: nondeterminism is allowed
   anywhere it cannot leak into an equivalence guarantee.

The rules:

* **RA701** iteration over an unordered collection (``set``, ``dict``
  views of sets, ``os.listdir``/``glob``/``Path.iterdir`` results)
  feeding accumulation or emitted output — remedy: ``sorted(...)``;
* **RA702** order-sensitive float accumulation (``sum()`` or a ``+=``
  loop) over an unordered collection — remedy: :func:`math.fsum`
  (order-independent, correctly rounded) or sorted iteration.  Integer
  sums are exact and hence order-free, so provably-integer literals are
  skipped; ``math.fsum`` takes one iterable and always yields a
  ``float``, so a ``sum(xs, start)`` message says it rules that remedy
  out;
* **RA703** numpy arrays built without a platform-stable dtype
  (``dtype=int`` is the C ``long``: 64-bit on Linux, 32-bit on
  Windows) — remedy: pin ``int64``/``float64`` explicitly; the message
  names the dtype wherever the call's arguments decide it;
* **RA704** ambient process state (wall clock, ``os.environ``,
  ``uuid``, global RNG, ``id()``-keyed lookups) — the value must be
  threaded in explicitly.

Sites are conservative; everything honours ``# repro: noqa[RAxxx]``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (Dict, FrozenSet, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from .base import ImportMap, ModuleContext, Violation, _snippet
from .callgraph import FunctionKey, ProjectGraph
from .hygiene import _WALL_CLOCK


class DeterminismConfigError(ValueError):
    """The ``[tool.repro.determinism]`` table is malformed."""


@dataclass(frozen=True)
class DeterminismConfig:
    """Validated contract table: contract name -> entry-point paths."""

    contracts: Mapping[str, Tuple[str, ...]]
    exempt: Tuple[str, ...] = ()
    source: str = "<memory>"

    def is_exempt(self, module: str) -> bool:
        """True when ``module`` sits under an exempt prefix."""
        return any(module == prefix or module.startswith(prefix + ".")
                   for prefix in self.exempt)


def determinism_from_table(raw: Mapping[str, object],
                           source: str) -> DeterminismConfig:
    """Validate a raw ``[tool.repro.determinism]`` table."""
    contracts: Dict[str, Tuple[str, ...]] = {}
    exempt: Tuple[str, ...] = ()

    def entry_list(name: str, value: object) -> Tuple[str, ...]:
        if not isinstance(value, (list, tuple)) or not all(
                isinstance(item, str) for item in value):
            raise DeterminismConfigError(
                f"{source}: [tool.repro.determinism] key {name!r} must "
                "map to a list of dotted paths")
        return tuple(value)

    for key, value in raw.items():
        if key == "exempt":
            exempt = entry_list(key, value)
        elif key == "contracts":
            if not isinstance(value, dict):
                raise DeterminismConfigError(
                    f"{source}: [tool.repro.determinism.contracts] must "
                    "be a table of contract-name = [entry, ...] pairs")
            for name, entries in value.items():
                contracts[str(name)] = entry_list(str(name), entries)
        else:
            # `name = [...]` directly under the table is sugar for a
            # contract, so small configs need only one section
            contracts[key] = entry_list(key, value)
    return DeterminismConfig(contracts=contracts, exempt=exempt,
                             source=source)


# -- sites --------------------------------------------------------------------

@dataclass(frozen=True)
class DetSite:
    """One potential determinism hazard inside one function.

    Sites are extracted per file with no knowledge of the contract
    table; whether a site is *reported* depends on reachability,
    decided at link time.
    """

    function: str        # qualname within the module ("f", "C.m", "<module>")
    code: str            # RA701..RA704
    lineno: int
    col: int             # 1-based, like Violation
    detail: str          # message fragment describing the hazard


# -- extraction ---------------------------------------------------------------

#: calls that return filesystem listings in arbitrary order
_UNORDERED_PRODUCERS: FrozenSet[str] = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})

#: attribute calls returning unordered listings regardless of receiver
#: (Path.iterdir/glob/rglob yield in os.scandir order, i.e. arbitrary)
_UNORDERED_METHODS: FrozenSet[str] = frozenset({
    "iterdir", "glob", "rglob", "scandir", "listdir",
})

#: set methods returning another unordered set
_SET_RETURNING_METHODS: FrozenSet[str] = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
    "copy",
})

#: builtins whose result does not depend on argument order (ties in
#: min/max are a documented blind spot)
_ORDER_FREE_CONSUMERS: FrozenSet[str] = frozenset({
    "min", "max", "len", "any", "all", "set", "frozenset", "sorted",
})

#: numpy constructors whose dtype handling RA703 audits
_NUMPY_CTORS: FrozenSet[str] = frozenset({
    "array", "asarray", "ascontiguousarray", "zeros", "ones", "empty",
    "full", "arange",
})

#: dtype spellings that mean "the platform C long" (RA703)
_PLATFORM_INT_DTYPES: FrozenSet[str] = frozenset({
    "numpy.int_", "numpy.intp", "numpy.intc", "numpy.long",
})

#: ambient-state calls beyond the wall clock (RA704, report-only)
_AMBIENT_ENV: FrozenSet[str] = frozenset({
    "os.getenv", "os.environ.get",
})
_AMBIENT_UUID: FrozenSet[str] = frozenset({
    "uuid.uuid1", "uuid.uuid4",
})
_AMBIENT_RANDOM: FrozenSet[str] = frozenset({
    "random.random", "random.randint", "random.randrange",
    "random.choice", "random.choices", "random.shuffle",
    "random.sample", "random.uniform", "random.gauss",
    "random.getrandbits",
    "numpy.random.rand", "numpy.random.randn", "numpy.random.randint",
    "numpy.random.random",
})

_COMPREHENSIONS = (ast.ListComp, ast.GeneratorExp, ast.DictComp)


def _int_only_set_literal(node: ast.expr) -> bool:
    """``{1, 2, 3}``: integer summation is exact, hence order-free.

    The one case where the RA702 detector can *prove* the summands are
    ints — where the ``math.fsum`` remedy (always float) would change
    the result type — is a set literal of integer constants, so it is
    skipped.
    """
    return isinstance(node, ast.Set) and bool(node.elts) and all(
        isinstance(elt, ast.Constant) and isinstance(elt.value, int)
        for elt in node.elts)


def _contains_id_call(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"):
            return True
    return False


class _FunctionDetScanner:
    """Order-aware walk of one function body collecting :class:`DetSite`.

    Tracks which local names are currently bound to unordered values
    (statement order matters: ``xs = set(...)`` then ``xs = sorted(xs)``
    clears the taint), so the walk is hand-rolled rather than a plain
    ``ast.walk``.
    """

    def __init__(self, qualname: str, imports: ImportMap,
                 sites: List[DetSite]) -> None:
        self.qualname = qualname
        self.imports = imports
        self.sites = sites
        self.unordered: Set[str] = set()
        #: comprehension nodes already claimed by an order-free consumer
        self.consumed: Set[int] = set()

    # -- recording ----------------------------------------------------------

    def _site(self, node: ast.expr, code: str, detail: str) -> None:
        self.sites.append(DetSite(
            function=self.qualname, code=code,
            lineno=node.lineno, col=node.col_offset + 1, detail=detail))

    # -- value-kind inference ------------------------------------------------

    def _dotted(self, node: ast.expr) -> Optional[str]:
        return self.imports.resolve_attribute(node)

    def is_unordered(self, node: ast.expr) -> bool:
        """Conservatively: does this expression yield in arbitrary order?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.unordered
        if isinstance(node, ast.IfExp):
            return (self.is_unordered(node.body)
                    or self.is_unordered(node.orelse))
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return (self.is_unordered(node.left)
                    or self.is_unordered(node.right))
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return True
                if func.id == "sorted":
                    return False
            dotted = self._dotted(func)
            if dotted in _UNORDERED_PRODUCERS:
                return True
            if isinstance(func, ast.Attribute):
                if func.attr in _UNORDERED_METHODS:
                    return True
                if (func.attr in _SET_RETURNING_METHODS
                        and self.is_unordered(func.value)):
                    return True
        return False

    def _genexp_iter_unordered(self,
                               node: ast.expr) -> Optional[ast.expr]:
        """First unordered generator iterable of a comprehension arg."""
        if not isinstance(node, _COMPREHENSIONS):
            return None
        for gen in node.generators:
            if self.is_unordered(gen.iter):
                return gen.iter
        return None

    # -- statements ----------------------------------------------------------

    def scan(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _bind(self, target: ast.expr, unordered: bool) -> None:
        if isinstance(target, ast.Name):
            if unordered:
                self.unordered.add(target.id)
            else:
                self.unordered.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, False)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, False)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._expr(stmt.value)
            unordered = self.is_unordered(stmt.value)
            for target in stmt.targets:
                if not isinstance(target, ast.Name):
                    self._expr(target)
                self._bind(target, unordered)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr(stmt.value)
                self._bind(stmt.target, self.is_unordered(stmt.value))
            if not isinstance(stmt.target, ast.Name):
                self._expr(stmt.target)
        elif isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value)
            if not isinstance(stmt.target, ast.Name):
                self._expr(stmt.target)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._loop(stmt)
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
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, False)
            self.scan(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.scan(stmt.body)
            for handler in stmt.handlers:
                self.scan(handler.body)
            self.scan(stmt.orelse)
            self.scan(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # nested defs: sites attribute to the enclosing function so
            # call-graph reachability (which only knows top-level names)
            # still covers them; taint does not flow across the boundary
            nested = _FunctionDetScanner(self.qualname, self.imports,
                                         self.sites)
            nested.scan(stmt.body)
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    nested = _FunctionDetScanner(
                        self.qualname, self.imports, self.sites)
                    nested.scan(item.body)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)

    def _loop(self, stmt: "ast.For | ast.AsyncFor") -> None:
        self._expr(stmt.iter)
        if self.is_unordered(stmt.iter):
            code = self._classify_loop_body(stmt.body)
            if code is not None:
                noun = ("order-sensitive arithmetic accumulation"
                        if code == "RA702" else
                        "order-dependent output (append/store/yield)")
                self._site(
                    stmt.iter, code,
                    detail=(f"loop over unordered `{_snippet(stmt.iter)}` "
                            f"feeds {noun}"))
        self._bind(stmt.target, False)
        self.scan(stmt.body)
        self.scan(stmt.orelse)

    @staticmethod
    def _classify_loop_body(body: Sequence[ast.stmt]) -> Optional[str]:
        """RA702 for arithmetic accumulation, RA701 for ordered output."""
        arith = False
        ordered = False
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.AugAssign) and isinstance(
                        node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
                    arith = True
                elif isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Attribute) and node.func.attr in (
                        "append", "extend", "insert", "appendleft",
                        "write", "writerow"):
                    ordered = True
                elif isinstance(node, ast.Assign):
                    if any(isinstance(t, ast.Subscript)
                           for t in node.targets):
                        ordered = True
                elif isinstance(node, (ast.Yield, ast.YieldFrom,
                                       ast.Return, ast.Break)):
                    # first-match exit or emission: which element wins
                    # depends on iteration order
                    ordered = True
        if arith:
            return "RA702"
        if ordered:
            return "RA701"
        return None

    # -- expressions ---------------------------------------------------------

    def _expr(self, node: ast.expr) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._call(sub)
            elif isinstance(sub, _COMPREHENSIONS):
                self._comp(sub)
            elif isinstance(sub, ast.Subscript):
                self._subscript(sub)

    def _claim(self, node: ast.expr) -> None:
        if isinstance(node, _COMPREHENSIONS + (ast.SetComp,)):
            self.consumed.add(id(node))

    def _flag_unordered_arg(self, arg: ast.expr, code: str,
                            consumer: str) -> bool:
        """RA701/RA702 for a consumer whose argument is unordered."""
        if self.is_unordered(arg):
            self._claim(arg)
            self._site(
                arg, code,
                detail=(f"`{consumer}` consumes unordered "
                        f"`{_snippet(arg)}`"))
            return True
        gen_iter = self._genexp_iter_unordered(arg)
        if gen_iter is not None:
            self._claim(arg)
            self._site(
                gen_iter, code,
                detail=(f"`{consumer}` consumes a generator over "
                        f"unordered `{_snippet(gen_iter)}`"))
            return True
        return False

    def _call(self, node: ast.Call) -> None:
        func = node.func
        dotted = self._dotted(func)
        if isinstance(func, ast.Name) and node.args:
            if func.id == "sum":
                arg = node.args[0]
                if ((self.is_unordered(arg)
                        or self._genexp_iter_unordered(arg) is not None)
                        and not _int_only_set_literal(arg)):
                    self._claim(arg)
                    # math.fsum takes exactly one iterable: for
                    # sum(xs, start) the remedy is sorted iteration — and
                    # a non-numeric start (list concatenation) is not
                    # float accumulation at all
                    bare = len(node.args) == 1 and not node.keywords
                    self._site(
                        node, "RA702",
                        detail=(f"`sum({_snippet(arg)})` accumulates "
                                "floats in arbitrary order"
                                + ("" if bare else
                                   "; the start argument rules out "
                                   "math.fsum")))
            elif func.id in ("list", "tuple"):
                self._flag_unordered_arg(node.args[0], "RA701", func.id)
            elif func.id in _ORDER_FREE_CONSUMERS:
                for arg in node.args:
                    self._claim(arg)
        elif (isinstance(func, ast.Attribute) and func.attr == "join"
                and node.args):
            self._flag_unordered_arg(node.args[0], "RA701", "join")
        if dotted is not None and dotted.startswith("numpy."):
            self._numpy(node, dotted)
        self._ambient(node, dotted)

    def _comp(self, node: ast.expr) -> None:
        if id(node) in self.consumed:
            return
        assert isinstance(node, _COMPREHENSIONS)
        kind = {"ListComp": "list", "GeneratorExp": "generator",
                "DictComp": "dict"}[type(node).__name__]
        for gen in node.generators:
            if self.is_unordered(gen.iter):
                self._site(
                    gen.iter, "RA701",
                    detail=(f"{kind} comprehension iterates unordered "
                            f"`{_snippet(gen.iter)}`"))
                return

    def _subscript(self, node: ast.Subscript) -> None:
        if _contains_id_call(node.slice):
            self._site(
                node, "RA704",
                detail="`id()`-keyed lookup depends on allocation "
                       "addresses, which differ every run")
        dotted = self._dotted(node.value)
        if dotted == "os.environ":
            self._site(
                node, "RA704",
                detail="`os.environ[...]` reads ambient process state")

    # -- RA703: numpy dtype stability ---------------------------------------

    def _numpy(self, node: ast.Call, dotted: str) -> None:
        tail = dotted[len("numpy."):]
        if tail not in _NUMPY_CTORS:
            return
        dtype_kw = next(
            (kw for kw in node.keywords if kw.arg == "dtype"), None)
        if dtype_kw is not None:
            self._numpy_dtype_value(node, tail, dtype_kw.value)
            return
        if tail in ("zeros", "ones", "empty"):
            self._numpy_pin(node, tail, "float64",
                            "defaults to float64 but leaves the dtype "
                            "unpinned in a persisted/hashed buffer")
        elif tail == "arange":
            consts = [a.value for a in node.args
                      if isinstance(a, ast.Constant)]
            if len(consts) == len(node.args) and node.args and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in consts):
                wanted = ("float64" if any(
                    isinstance(v, float) for v in consts) else "int64")
                self._numpy_pin(
                    node, tail, wanted,
                    "infers the platform default int (C long) from "
                    "integer bounds" if wanted == "int64" else
                    "leaves the dtype unpinned")
            else:
                self._site(node, "RA703",
                           detail=f"`{_snippet(node)}` without dtype= "
                                  "infers a platform-dependent type")
        elif tail == "full":
            fill = node.args[1] if len(node.args) >= 2 else None
            if isinstance(fill, ast.Constant) and isinstance(
                    fill.value, (int, float)) and not isinstance(
                    fill.value, bool):
                wanted = ("int64" if isinstance(fill.value, int)
                          else "float64")
                self._numpy_pin(
                    node, tail, wanted,
                    "infers its dtype from the fill value (ints become "
                    "the platform C long)")
            else:
                self._site(node, "RA703",
                           detail=f"`{_snippet(node)}` without dtype= "
                                  "infers a platform-dependent type")
        else:  # array / asarray / ascontiguousarray
            self._site(
                node, "RA703",
                detail=(f"`{tail}(...)` without dtype= infers from the "
                        "data: integer input becomes the platform C "
                        "long (64-bit Linux, 32-bit Windows)"))

    def _numpy_dtype_value(self, node: ast.Call, tail: str,
                           value: ast.expr) -> None:
        dotted = self._dotted(value)
        is_platform_int = (
            (isinstance(value, ast.Name) and value.id == "int")
            or (isinstance(value, ast.Constant) and value.value == "int")
            or dotted in _PLATFORM_INT_DTYPES)
        if is_platform_int:
            self._site(
                node, "RA703",
                detail=(f"`{tail}(..., dtype={_snippet(value)})` is the "
                        "platform C long (64-bit Linux, 32-bit Windows); "
                        "pin dtype=int64"))
        elif (dotted == "numpy.float32"
                or (isinstance(value, ast.Constant)
                    and value.value == "float32")):
            self._site(
                node, "RA703",
                detail=(f"`{tail}(..., dtype=float32)` silently upcasts "
                        "when mixed with float64 accumulators; keep "
                        "contract-path arrays float64 or isolate the "
                        "cast"))

    def _numpy_pin(self, node: ast.Call, tail: str, wanted: str,
                   why: str) -> None:
        self._site(node, "RA703",
                   detail=f"`{tail}(...)` {why}; pin dtype={wanted}")

    # -- RA704: ambient state ------------------------------------------------

    def _ambient(self, node: ast.Call,
                 dotted: Optional[str]) -> None:
        func = node.func
        if dotted is None:
            if (isinstance(func, ast.Attribute)
                    and func.attr in ("get", "setdefault", "pop")
                    and node.args and _contains_id_call(node.args[0])):
                self._site(
                    node, "RA704",
                    detail="`id()`-keyed lookup depends on allocation "
                           "addresses, which differ every run")
            return
        if dotted in _WALL_CLOCK:
            self._site(
                node, "RA704",
                detail=f"wall-clock read `{dotted}(...)` makes output "
                       "depend on when the run happened")
        elif dotted in _AMBIENT_ENV:
            self._site(
                node, "RA704",
                detail=f"`{dotted}(...)` reads ambient process "
                       "environment")
        elif dotted in _AMBIENT_UUID:
            self._site(
                node, "RA704",
                detail=f"`{dotted}()` draws from OS entropy/clock")
        elif dotted in _AMBIENT_RANDOM:
            self._site(
                node, "RA704",
                detail=f"`{dotted}(...)` draws from process-global "
                       "RNG state")


def extract_det_sites(context: ModuleContext) -> List[DetSite]:
    """All determinism sites in one module, grouped by function."""
    sites: List[DetSite] = []
    for unit in context.functions:
        _FunctionDetScanner(unit.qualname, context.imports,
                            sites).scan(unit.body)
    return sites


# -- the check ----------------------------------------------------------------

def _resolve_entry(graph: ProjectGraph, entry: str,
                   _depth: int = 0) -> List[FunctionKey]:
    """Entry path -> function keys: function, Class.method, class
    (every method), or module/package (every function)."""
    if _depth > 8:
        return []
    matches = [name for name in graph.modules
               if name == entry or name.startswith(entry + ".")]
    if matches:
        return [(name, qualname)
                for name in sorted(matches)
                for qualname in sorted(graph.modules[name].functions)]
    parts = entry.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        prefix = ".".join(parts[:cut])
        module = graph.modules.get(prefix)
        if module is None:
            continue
        rest = parts[cut:]
        if len(rest) == 1 and module.defs.get(rest[0]) == "class":
            head = rest[0] + "."
            return [(prefix, qualname)
                    for qualname in sorted(module.functions)
                    if qualname.startswith(head)]
        name = ".".join(rest)
        if name in module.functions:
            return [(prefix, name)]
        if rest[0] in module.symbol_imports:
            chained = ".".join(
                [module.symbol_imports[rest[0]]] + rest[1:])
            return _resolve_entry(graph, chained, _depth + 1)
        return []
    return []


_REMEDIES: Dict[str, str] = {
    "RA701": "wrap the iterable in `sorted(...)`",
    "RA702": ("accumulate with `math.fsum` "
              "(order-independent, correctly rounded; returns float "
              "even for int inputs) or iterate in sorted order"),
    "RA703": "pin an explicit platform-stable dtype",
    "RA704": ("thread the value in explicitly (seed, hour, config) "
              "instead of reading process state"),
}


def check_determinism(
    graph: ProjectGraph,
    sites_by_module: Mapping[str, Sequence[DetSite]],
    config: DeterminismConfig,
) -> List[Violation]:
    """Report sites reachable from contract entry points."""
    violations: List[Violation] = []
    roots: Dict[FunctionKey, Tuple[str, str]] = {}
    for contract in sorted(config.contracts):
        for entry in config.contracts[contract]:
            keys = _resolve_entry(graph, entry)
            if not keys:
                violations.append(Violation(
                    path=config.source, line=1, col=1, code="RA700",
                    message=(f"contract `{contract}` entry `{entry}` "
                             "does not resolve to a known module, "
                             "class, or function; fix the path or "
                             "remove the entry")))
                continue
            for key in keys:
                roots.setdefault(key, (contract, entry))
    origin = graph.reachable_from(list(roots))
    for module_name in sorted(sites_by_module):
        facts = graph.modules.get(module_name)
        if facts is None or config.is_exempt(module_name):
            continue
        for site in sites_by_module[module_name]:
            root = origin.get((module_name, site.function))
            if root is None:
                continue
            if facts.is_suppressed(site.lineno, site.code):
                continue
            contract, entry = roots[root]
            violations.append(Violation(
                path=facts.display_path, line=site.lineno,
                col=site.col, code=site.code,
                message=(f"{site.detail} — on determinism contract "
                         f"`{contract}` (reachable from `{entry}`); "
                         f"{_REMEDIES[site.code]}")))
    return violations
