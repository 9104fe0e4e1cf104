"""Shared utilities (deterministic hashing, exact sums, small helpers).

The leaf of the dependency tree: imports nothing from ``repro``, is
imported by everything.  Hosts ``mix64`` — the stateless seeded mixer
that replaces global RNG state everywhere (lint rules RA001–RA003) —
the bounded ``LruDict`` and ``AnswerMemo``, and
``exactsum.exact_total``, the order-free sum the RA702 autofix routes
unordered float accumulation through.
"""

from .cache import AnswerMemo, LruDict
from .hashing import geometric_day, mix64, rotation, unit

__all__ = [
    "AnswerMemo", "LruDict",
    "geometric_day", "mix64", "rotation", "unit",
]
