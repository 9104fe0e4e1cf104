"""Shared utilities (deterministic hashing, exact sums, small helpers).

The leaf of the dependency tree: imports nothing from ``repro``, is
imported by everything.  Hosts ``mix64`` — the stateless seeded mixer
that replaces global RNG state everywhere (lint rules RA001–RA003) —
the bounded ``LruDict`` and ``AnswerMemo``, and
``exactsum.exact_total``, the order-free sum RA702's message names for
unordered float accumulation.
"""

from .cache import AnswerMemo, LruDict
from .hashing import geometric_day, mix64, rotation, unit

__all__ = [
    "AnswerMemo", "LruDict",
    "geometric_day", "mix64", "rotation", "unit",
]
