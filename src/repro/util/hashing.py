"""Deterministic hashing utilities.

Python's builtin ``hash`` is salted per process, so every place the
simulator needs a *stable* pseudo-random decision (per-prefix ECMP
spraying, policy biases, drift schedules) goes through these mixers
instead.  The mixer is a splitmix64-style finalizer: fast, well
distributed, and reproducible across runs and platforms.

:func:`mix64_columns`, :func:`unit_columns`, :func:`rotation_columns`:
their column twins, each matrix row hashed as the scalar hashes it;
:func:`folded_seed` carries a fold's first columns over as a seed.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

_MASK64 = (1 << 64) - 1
# numpy scalars, so that no operand of a column fold is a python int
_GOLDEN, _MUL1, _MUL2, _S27, _S30, _S31 = (np.uint64(v) for v in (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 27, 30, 31))


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


def mix64_columns(values: np.ndarray, seed: Union[int, np.ndarray] = 0,
                  lengths: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`mix64` of each row of an ``(n, k)`` integer matrix, as
    ``uint64``: row ``i`` folds its first ``lengths[i]`` values (all by
    default); ``seed`` is one int or one per row.  Values and seeds are
    taken mod 2**64, as :func:`mix64` takes them."""
    h = (seed.astype(np.uint64) ^ _GOLDEN if isinstance(seed, np.ndarray)
         else np.full(len(values), (seed ^ int(_GOLDEN)) & _MASK64,
                      dtype=np.uint64))
    columns = values.astype(np.uint64)
    # the values every row folds need no mask
    unmasked = (columns.shape[1] if lengths is None or not len(h)
                else int(lengths.min()))
    for j in range(columns.shape[1]):
        x = h + columns[:, j]
        x ^= x >> _S30
        x *= _MUL1
        x ^= x >> _S27
        x *= _MUL2
        x ^= x >> _S31
        h = x if j < unmasked else np.where(j < lengths, x, h)
    return h


def folded_seed(values: np.ndarray, seed: Union[int, np.ndarray] = 0
                ) -> np.ndarray:
    """The per-row seed that goes on from ``values``' fold:
    ``mix64_columns(np.column_stack((values, rest)), seed, lengths)``
    equals ``mix64_columns(rest, folded_seed(values, seed), lengths -
    values.shape[1])``, so a fold's common first columns can be folded
    once."""
    return mix64_columns(values, seed) ^ _GOLDEN


def unit_columns(values: np.ndarray, seed: Union[int, np.ndarray] = 0,
                 lengths: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`unit` per row (see :func:`mix64_columns`): ``uint64 ->
    float64`` rounds to nearest even, as python's ``int / float`` does."""
    return mix64_columns(values, seed, lengths).astype(np.float64) / 2.0**64


def rotation_columns(n: np.ndarray, values: np.ndarray,
                     seed: Union[int, np.ndarray] = 0,
                     lengths: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`rotation` per row, row ``i`` in ``[0, n[i])``, as int64."""
    if (n <= 0).any():
        raise ValueError("rotation needs n >= 1")
    return (mix64_columns(values, seed, lengths)
            % n.astype(np.uint64)).astype(np.int64)


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
