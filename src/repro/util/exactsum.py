"""Order-free floating-point summation.

Plain ``a + b + c`` folds are not associative in IEEE-754, so a sum
taken over an unordered collection (a set, a dict built in arrival
order, per-shard partial results) can differ in its last bits from run
to run.  :func:`exact_total` is the one answer this tree gives to that:
the correctly-rounded float of the exact real-valued sum, whatever the
order.  Sums whose order *is* fixed — the per-key byte counts, folded in
row order by ``np.bincount`` — do not need it and do not use it.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["exact_total"]


def exact_total(values: Iterable[float]) -> float:
    """Order-independent, correctly-rounded sum of ``values``.

    Drop-in replacement for a bare single-argument ``sum(...)`` on
    determinism-contract paths (the remedy RA702's message names):
    ``math.fsum`` accumulates exact partials, so the result is the
    correctly-rounded float of the true real-valued sum — identical no
    matter how the input is ordered, grouped, sharded, or which
    platform ran it.

    Unlike ``sum``, the result is *always* ``float``: ``sum([2, 3])``
    is the int ``5`` but ``exact_total([2, 3])`` is ``5.0`` — don't
    route provably-integer sums (already exact and order-free) through
    here, and mind the type change where a sum feeds indexing,
    serialization, or hashed snapshots.  There is also no ``start``
    parameter; fold a non-zero start in as one more summand.
    """
    return math.fsum(values)
