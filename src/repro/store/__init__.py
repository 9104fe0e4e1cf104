"""``repro.store`` — persistent columnar storage for model state.

The storage boundary behind :class:`repro.core.training.DayCounts`
and :class:`repro.core.historical.HistoricalModel`:
day/hour-keyed state is serialised into uncompressed
``.npz`` columnar segments under a checksummed JSON manifest, written
atomically (temp file + rename) and read under a strict
corrupt-state-degrades-to-rebuild contract — a truncated segment, a bad
checksum or a format-version skew reads as *absent*, never as an error,
so a restarting service falls back to recomputing from the pipeline
instead of refusing to start.

This package is deliberately model-agnostic: it knows about named
``int64``/``float64`` columns, nothing about flow tuples or
rankings.  The model-aware encode/decode is the
``to_arrays``/``from_arrays`` pair on those two classes, and the
service-level snapshot/restore orchestration lives in
:mod:`repro.core.service` — see ``docs/storage.md``
for the file layout and the full contract.
"""

from .codec import (
    decode_keyed_table,
    encode_keyed_table,
    key_column_names,
)
from .segments import (
    MANIFEST_NAME,
    STORE_FORMAT,
    SegmentInfo,
    SegmentStore,
)

__all__ = [
    "MANIFEST_NAME",
    "STORE_FORMAT",
    "SegmentInfo",
    "SegmentStore",
    "encode_keyed_table",
    "decode_keyed_table",
    "key_column_names",
]
