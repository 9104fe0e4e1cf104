"""Deterministic feature-key sharding for the serving daemon.

Every TIPSY feature grain (A, AL, AP — and therefore the geographic
completion and the sequential ensembles built from them) keys on the
flow's source AS, so hashing ``src_asn`` places *all* of a flow's model
state on one shard: the counts a shard accumulates are exactly the
counts the single-process service would consult for the same flow, and
a sharded prediction is bit-identical to an unsharded one.

Ingest is split on the ``src_asn`` *column* (:func:`split_columns`): each
shard is sent the rows a boolean mask keeps, as seven arrays, never a
list of record objects.

The hash is :func:`repro.util.hashing.mix64` — stable across processes,
runs and platforms (Python's builtin ``hash`` is salted per process and
must never decide shard placement).  The seed and layout version are
part of the checkpoint format: a daemon can only resume a checkpoint
written under the same layout, so neither constant may change without
bumping :data:`SHARD_LAYOUT_VERSION`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

import numpy as np

from ..pipeline.records import AggColumns
from ..util.hashing import mix64

#: fixed hash seed — part of the checkpoint format, never change casually
SHARD_HASH_SEED = 0xB10C5EED

#: bump on any change to the shard-placement function or its seed
SHARD_LAYOUT_VERSION = 1


@lru_cache(maxsize=1 << 16)  # queries ask about the same few thousand sources
def shard_of(src_asn: int, n_shards: int) -> int:
    """The shard index owning all model state keyed by ``src_asn``."""
    if n_shards <= 0:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards == 1:
        return 0
    return mix64(src_asn, seed=SHARD_HASH_SEED) % n_shards


def split_columns(columns: AggColumns, n_shards: int) -> List[AggColumns]:
    """Partition one hour's rows by owning shard, order-preserving.

    :func:`shard_of` runs once per distinct ``src_asn``; each shard's
    slice is a boolean mask over the columns.  Every shard gets a slice
    (possibly empty) so each worker still sees every hour — day
    crossings, and therefore retrains and window evictions, stay aligned
    with the single-process service.
    """
    asns, inverse = np.unique(columns.src_asns, return_inverse=True)
    owners = np.array([shard_of(asn, n_shards) for asn in asns.tolist()],
                      dtype=np.int64)[inverse.ravel()]
    masks = (owners == shard_id for shard_id in range(n_shards))
    return [AggColumns(columns.hour, *(column[mask]
                                       for column in columns[1:]))
            for mask in masks]

