"""Columnar codec: tuple-keyed byte counts <-> aligned numpy arrays.

Everything TIPSY persists is, at heart, a *keyed table* —
``{(int, ...): float}`` with a fixed key width (flow-context counts,
feature-grain model counts), stored as one ``int64`` column per key
field plus one ``float64`` value column.

The encoding is lossless for the types the pipeline produces:
key fields are ordinal-encoded ints (``int64``-representable by
construction) and byte counts are ``float64`` already, so a round trip
restores *the same floats in the same order* — the property the
snapshot/restore bit-identical guarantee rests on, and the property the
hypothesis suite in ``tests/store/test_codec.py`` hammers.

Dict iteration order is part of the contract: rows are emitted in the
source dict's insertion order and decoded back in row order, so a
restored dict iterates exactly like the one that was saved.  Downstream
folds (``DayCounts.project``, the window fold, ranking totals) follow
that row order, which makes order preservation necessary for
bit-identical restores, not a nicety.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple

import numpy as np

__all__ = [
    "encode_keyed_table",
    "decode_keyed_table",
    "key_column_names",
]

#: prefix of generated key-column names: k0, k1, ...
_KEY_PREFIX = "k"


def key_column_names(width: int) -> Tuple[str, ...]:
    """The column names a ``width``-field key encodes to."""
    return tuple(f"{_KEY_PREFIX}{i}" for i in range(width))


def encode_keyed_table(table: Mapping[Tuple[int, ...], float],
                       width: int) -> Dict[str, np.ndarray]:
    """Encode ``{key tuple: value}`` as aligned columns.

    Returns ``{"k0": int64, ..., "k<width-1>": int64, "value": float64}``
    with one row per mapping entry, in the mapping's iteration order.
    Every key must have exactly ``width`` int fields.
    """
    if width <= 0:
        raise ValueError(f"key width must be positive, got {width}")
    n = len(table)
    keys = np.empty((n, width), dtype=np.int64)
    values = np.empty(n, dtype=np.float64)
    for row, (key, value) in enumerate(table.items()):
        if len(key) != width:
            raise ValueError(
                f"key {key!r} has {len(key)} fields, expected {width}")
        keys[row] = key
        values[row] = value
    columns: Dict[str, np.ndarray] = {
        name: np.ascontiguousarray(keys[:, i], dtype=np.int64)
        for i, name in enumerate(key_column_names(width))
    }
    columns["value"] = values
    return columns


def decode_keyed_table(columns: Mapping[str, np.ndarray], width: int,
                       ) -> Iterator[Tuple[Tuple[int, ...], float]]:
    """Yield ``(key tuple, value)`` rows from :func:`encode_keyed_table`
    output, in row (= original insertion) order."""
    names = key_column_names(width)
    fields = [columns[name].tolist() for name in names]
    values = columns["value"].tolist()
    for row in zip(*fields, values):
        yield tuple(row[:-1]), row[-1]
