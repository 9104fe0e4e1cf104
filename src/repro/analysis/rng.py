"""RNG-discipline checkers (RA001-RA003).

The equivalence guarantees of the sharded daemon and of a resumed
feed (:meth:`repro.experiments.scenario.Scenario.aggregated_hours` begun
at any hour, in any process) hold only while every stochastic quantity
is a pure function of ``(seed, inputs)``.
Three things break it:

* ``random.random()`` / ``random.choice(...)`` … — the stdlib's
  *module-level* functions share one process-global generator whose
  state depends on call order, and therefore on worker count (RA001);
* the legacy ``numpy.random.*`` global API (``np.random.rand``,
  ``np.random.seed`` …) — same problem, one hidden global
  ``RandomState`` (RA002);
* ``default_rng()`` / ``random.Random()`` constructed *without* an
  explicit seed — seeded from the OS entropy pool, different every run
  (RA003).

Explicitly-seeded generator instances are fine, and are the repo's
idiom: ``np.random.default_rng(mix64(hour, seed=self.seed))`` or
``random.Random(seed ^ 0x5A17)``.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Optional, Tuple

from .base import Checker

#: ``numpy.random`` attributes that construct explicit generator state
#: (allowed — though the constructors still need a seed, see RA003)
#: rather than touching the global RandomState.
_NUMPY_CONSTRUCTORS: FrozenSet[str] = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "BitGenerator", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: constructors whose first argument (or ``seed=`` keyword) is the seed
#: and must be present and non-None.
_SEED_REQUIRED: FrozenSet[str] = frozenset({
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
    "numpy.random.PCG64DXSM", "numpy.random.Philox",
    "numpy.random.SFC64", "numpy.random.MT19937",
    "random.Random",
})


def _is_none(node: Optional[ast.expr]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _has_explicit_seed(call: ast.Call) -> bool:
    """True when the call passes a non-None seed (positionally or by
    ``seed=``)."""
    if call.args and not _is_none(call.args[0]):
        return True
    for keyword in call.keywords:
        if keyword.arg == "seed" and not _is_none(keyword.value):
            return True
    return False


class RngDisciplineChecker(Checker):
    """RA001 (global random), RA002 (numpy global), RA003 (unseeded)."""

    codes: Tuple[str, ...] = ("RA001", "RA002", "RA003")

    # -- helpers -----------------------------------------------------------

    def _dotted(self, node: ast.expr) -> Optional[str]:
        return self.context.imports.resolve_attribute(node)

    def _check_seeded(self, call: ast.Call, dotted: str) -> None:
        if dotted in _SEED_REQUIRED and not _has_explicit_seed(call):
            short = dotted.replace("numpy.random.", "").replace(
                "random.", "random.")
            self.report(
                call, "RA003",
                f"`{short}` constructed without an explicit seed; derive "
                f"one with `repro.util.hashing.mix64(..., seed=...)` so "
                f"runs are reproducible")

    # -- visitors ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if dotted is not None:
            if dotted.startswith("numpy.random."):
                tail = dotted[len("numpy.random."):]
                head = tail.split(".")[0]
                if head in _NUMPY_CONSTRUCTORS:
                    self._check_seeded(node, f"numpy.random.{head}")
                else:
                    self.report(
                        node, "RA002",
                        f"`{dotted}` draws from numpy's process-global "
                        f"RandomState; construct a generator with "
                        f"`default_rng(mix64(..., seed=...))` instead")
            elif dotted.startswith("random."):
                tail = dotted[len("random."):]
                head = tail.split(".")[0]
                if head == "Random":
                    self._check_seeded(node, "random.Random")
                elif head == "SystemRandom":
                    self.report(
                        node, "RA001",
                        "`random.SystemRandom` reads OS entropy and can "
                        "never be reproduced; use a seeded "
                        "`random.Random(...)` instance")
                else:
                    self.report(
                        node, "RA001",
                        f"`{dotted}` uses the stdlib's process-global "
                        f"generator; its state depends on call order and "
                        f"worker count — use a seeded `random.Random(...)` "
                        f"instance or `repro.util.hashing`")
        self.generic_visit(node)
