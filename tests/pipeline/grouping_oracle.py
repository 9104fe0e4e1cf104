"""The stable-sort grouping ``repro.pipeline.aggregation`` is tested against.

``first_seen_groups`` here numbers keys through ``np.unique`` with
``return_index`` (a stable argsort), ``sorted_rows`` is a stable
argsort of the rows' mixed-radix codes, and ``SortedTable`` searches
its needles in the order they come.  The module's versions sort codes
made distinct by their row (in the low bits) with numpy's unstable
sort and search needles in ascending order; every result must be the
same permutation (``tests/properties/test_prop_grouping.py``).  Both
share ``_combine_group_codes``, the mixed-radix fold.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.pipeline.aggregation import _combine_group_codes


def first_seen_groups(key_columns: Sequence[np.ndarray],
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Number rows by key, keys in first-seen order.

    Returns ``(rep, group)``: ``rep`` the row each distinct key first
    appears on, ``group`` each row's key number (``rep``'s index).
    """
    _, first_key, inv_key = np.unique(
        _combine_group_codes(key_columns), return_index=True,
        return_inverse=True)
    # np.unique numbers the groups in key order: renumber by first row
    first = np.zeros(len(key_columns[0]), dtype=bool)
    first[first_key] = True
    rank = np.cumsum(first, dtype=np.int64)[first_key] - 1
    return np.flatnonzero(first), rank[inv_key.ravel()]


def sorted_rows(key_columns: Sequence[np.ndarray]) -> np.ndarray:
    """The stable order of rows sorted by integer key columns, the first
    column most significant: ``np.lexsort(key_columns[::-1])``, from one
    sort of the rows' mixed-radix codes."""
    return np.argsort(_combine_group_codes(key_columns), kind="stable")


class SortedTable:
    """Distinct int64 keys, kept sorted, each with an int64 payload,
    found by binary search of each key in turn."""

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._payload = np.empty(0, dtype=np.int64)

    def find(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(held, payload)`` per key; payload is arbitrary where not held."""
        if not len(self._keys):
            return (np.zeros(len(keys), dtype=bool),
                    np.zeros(len(keys), dtype=np.int64))
        at = np.searchsorted(self._keys, keys)
        at[at == len(self._keys)] = 0
        return self._keys[at] == keys, self._payload[at]

    def add(self, keys: np.ndarray, payload: np.ndarray) -> None:
        """Merge in distinct keys the table does not hold yet."""
        order = np.argsort(keys, kind="stable")
        at = np.searchsorted(self._keys, keys[order])
        self._payload = np.insert(self._payload, at, payload[order])
        self._keys = np.insert(self._keys, at, keys[order])
