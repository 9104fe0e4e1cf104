"""Deterministic hashing utilities.

Python's builtin ``hash`` is salted per process, so every place the
simulator needs a *stable* pseudo-random decision (per-prefix ECMP
spraying, policy biases, drift schedules) goes through these mixers
instead.  The mixer is a splitmix64-style finalizer: fast, well
distributed, and reproducible across runs and platforms.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1


def mix64(*values: int, seed: int = 0) -> int:
    """Mix integer values into a 64-bit hash, deterministically."""
    h = (seed ^ 0x9E3779B97F4A7C15) & _MASK64
    for v in values:
        h = (h + (v & _MASK64)) & _MASK64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


def unit(*values: int, seed: int = 0) -> float:
    """Deterministic uniform float in [0, 1) derived from the inputs."""
    return mix64(*values, seed=seed) / float(1 << 64)


def rotation(n: int, *values: int, seed: int = 0) -> int:
    """Deterministic rotation offset in [0, n) for ECMP-style spraying."""
    if n <= 0:
        raise ValueError("rotation needs n >= 1")
    return mix64(*values, seed=seed) % n


def geometric_day(p: float, *values: int, seed: int = 0, cap: int = 10_000) -> int:
    """Deterministic draw of a geometric 'first success' day.

    Used to schedule slow routing drift: the day (0-based) on which a flow's
    primary route shifts.  ``p`` is the per-day shift probability.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p must be in [0, 1)")
    if p == 0.0:
        return cap
    u = unit(*values, seed=seed)
    # avoid log(0)
    u = max(u, 1e-12)
    day = int(math.log(u) / math.log(1.0 - p))
    return min(day, cap)
