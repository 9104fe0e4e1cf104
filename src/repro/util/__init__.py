"""Shared utilities (deterministic hashing, small helpers).

The leaf of the dependency tree: imports nothing from ``repro``, is
imported by everything.  Hosts ``mix64`` — the stateless seeded mixer
that replaces global RNG state everywhere (lint rules RA001–RA003) —
and the bounded ``LruDict`` and ``AnswerMemo``.
"""

from .cache import AnswerMemo, LruDict
from .hashing import geometric_day, mix64, rotation, unit

__all__ = [
    "AnswerMemo", "LruDict",
    "geometric_day", "mix64", "rotation", "unit",
]
