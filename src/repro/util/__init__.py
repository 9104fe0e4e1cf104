"""Shared utilities (deterministic hashing, small helpers).

The leaf of the dependency tree: imports nothing from ``repro``, is
imported by everything.  Hosts ``mix64`` — the stateless seeded mixer
that replaces global RNG state everywhere (lint rules RA001–RA003) —
the bounded ``LruDict`` and ``AnswerMemo``, and ``running_sum``.
"""

from typing import Iterable

from .cache import AnswerMemo, LruDict
from .hashing import geometric_day, mix64, rotation, unit

__all__ = [
    "AnswerMemo", "LruDict",
    "geometric_day", "mix64", "rotation", "running_sum", "unit",
]


def running_sum(values: Iterable[float]) -> float:
    """``0.0 + v0 + v1 + ...`` in order on every interpreter (from 3.12
    the builtin ``sum`` of floats compensates, and can differ by an ulp)."""
    total = 0.0
    for value in values:
        total += value
    return total
