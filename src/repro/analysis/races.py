"""RA501: shared-state races reachable from process-pool dispatches.

Work shipped to worker processes is proved equal to the in-process run
(as the shard workers of ``repro.serve`` are to its thread mode).  That
proof silently assumes no worker function — nor anything it
transitively calls — mutates module- or class-level state that the
parent later reads: under ``fork`` such writes vanish into the child,
under ``spawn`` they hit re-imported fresh modules, and under threads
they race outright.  Either way the equivalence breaks in a fashion no
unit test of the function in isolation can catch.

This rule walks the conservative call graph built by
:mod:`callgraph`:

1. *Roots*: every callable handed to a pool dispatch method
   (``.submit``, ``.apply_async``, ``.imap*``, ``.starmap*``,
   ``.map_async`` always; ``.map`` when the receiver looks pool-ish)
   or passed as a pool ``initializer=``.
2. *Closure*: BFS over resolvable call edges from those roots.
3. *Findings*: every recorded write to module-level or class-level
   state inside the closure — ``global`` rebinding, in-place mutation
   of a module-level container, or a ``Cls.attr`` / ``cls.attr``
   store.

The violation is reported **at the write site** (that is the line to
fix or annotate), with the dispatch root named in the message so the
reader can trace the path.  Worker-local state that is mutated *by
design* (per-process caches re-initialised by the pool initializer)
is annotated ``# repro: noqa[RA501]`` with a why-comment; what the
parent must see comes back in the return value, as the shard workers
of ``repro.serve`` ship their metrics as snapshot deltas
(``repro/serve/worker.py``).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .base import Violation
from .callgraph import FunctionKey, ProjectGraph


def check_races(graph: ProjectGraph) -> List[Violation]:
    """All RA501 violations in a linked project graph."""
    roots = graph.dispatch_roots()
    root_keys = [key for key, _module, _dispatch in roots]
    origin = graph.reachable_from(root_keys)

    # root key -> human-readable dispatch description for messages
    described: Dict[FunctionKey, str] = {}
    for key, module, dispatch in roots:
        if key not in described:
            described[key] = (f"{module.display_path}:{dispatch.lineno} "
                              f"{dispatch.how}")

    violations: List[Violation] = []
    seen: Set[Tuple[str, int, str]] = set()
    for key in sorted(origin):
        fn = graph.function(key)
        if fn is None:
            continue
        module = graph.modules[key[0]]
        root = origin[key]
        root_fn = f"{root[0]}.{root[1]}"
        for write in fn.writes:
            dedupe = (module.display_path, write.lineno, write.target)
            if dedupe in seen:
                continue
            seen.add(dedupe)
            if module.is_suppressed(write.lineno, "RA501"):
                continue
            if key == root:
                reach = "is dispatched to a process pool"
            else:
                reach = (f"is reachable from pool-dispatched "
                         f"`{root_fn}`")
            if write.kind == "global-assign":
                what = f"rebinds module global `{write.target}`"
            elif write.kind == "class-attr":
                what = f"writes class attribute `{write.target}`"
            else:
                what = f"mutates module-level `{write.target}` in place"
            violations.append(Violation(
                path=module.display_path,
                line=write.lineno,
                col=write.col,
                code="RA501",
                message=(f"`{key[1]}` {what} but {reach} "
                         f"(dispatch at {described[root]}); worker "
                         "writes never merge back — pass state "
                         "explicitly, or mark deliberate per-process "
                         "state with `# repro: noqa[RA501]` and a "
                         "why-comment"),
            ))
    return sorted(violations)
