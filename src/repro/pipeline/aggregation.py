"""Hourly aggregation of IPFIX into feature-indexed chunks (paper §4.2).

Aggregation (1) sums bytes over all raw flow records that share the TIPSY
feature tuple and ingress link within an hour, and (2) joins metadata:
Geo-IP source location, destination region and service type.  The paper
reports the aggregated IPFIX at ~2% of the raw size; ``CompressionStats``
tracks the equivalent ratio here.

Two execution paths produce identical output: :meth:`aggregate_hour`
walks records one at a time (the reference implementation), while
:meth:`aggregate_hour_columns` vectorises the group-by with numpy —
same records, same order, bit-identical byte sums (both accumulate per
key in input order), same strict/lenient drop accounting.  Across hours
the columnar path joins by :class:`SortedTable` look-up and walks only
prefixes it has not joined before, in the serial walk's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..obs import runtime as obs
from ..telemetry.ipfix import IpfixRecord
from ..telemetry.metadata import MetadataStore
from .encoding import EncoderSet
from .records import AggColumns, AggRecord, UNKNOWN_LOCATION


@dataclass
class CompressionStats:
    """Input vs output record accounting for the aggregation stage."""

    records_in: int = 0
    records_out: int = 0
    records_dropped: int = 0

    @property
    def ratio(self) -> float:
        """Output records as a fraction of input (lower = more compression)."""
        if self.records_in == 0:
            return 1.0
        return self.records_out / self.records_in


class HourlyAggregator:
    """Joins and aggregates one hour of IPFIX records at a time.

    ``strict`` controls the corrupt-telemetry policy: strict aggregation
    raises on a record it cannot join or with a non-positive byte count
    (fail loudly in tests and pipelines you control); lenient
    aggregation counts the record in ``stats.records_dropped`` and moves
    on (collectors in the wild emit garbage occasionally, and one bad
    record must not lose an hour of data).
    """

    def __init__(self, metadata: MetadataStore, encoders: EncoderSet = None,
                 strict: bool = True):
        self.metadata = metadata
        self.encoders = encoders or EncoderSet()
        self.strict = strict
        self.stats = CompressionStats()
        # caches: ids -> encoded feature values
        self._dest_cache: Dict[int, Tuple[int, int]] = {}
        self._loc_cache: Dict[int, int] = {}
        self._dest_table = SortedTable(2)   # the same joins for a column
        self._loc_table = SortedTable()     # of ids, filled from the caches

    def _dest_features(self, dest_prefix_id: int) -> Tuple[int, int]:
        cached = self._dest_cache.get(dest_prefix_id)
        if cached is None:
            region, service = self.metadata.destination_features(dest_prefix_id)
            cached = (self.encoders.region.encode(region),
                      self.encoders.service.encode(service))
            self._dest_cache[dest_prefix_id] = cached
        return cached

    def _location(self, src_prefix_id: int) -> int:
        cached = self._loc_cache.get(src_prefix_id)
        if cached is None:
            metro = self.metadata.source_location(src_prefix_id)
            cached = (UNKNOWN_LOCATION if metro is None
                      else self.encoders.location.encode(metro))
            self._loc_cache[src_prefix_id] = cached
        return cached

    @staticmethod
    def _observe_hour(records_in: int, records_out: int,
                      dropped: int) -> None:
        """Report one aggregated hour to the obs registry (cheap when off)."""
        if not obs.enabled():
            return
        obs.count("pipeline.aggregate.hours")
        obs.count("pipeline.aggregate.records_in", float(records_in))
        obs.count("pipeline.aggregate.records_out", float(records_out))
        if dropped:
            obs.count("pipeline.aggregate.records_dropped", float(dropped))

    def aggregate_hour(self, hour: int,
                       records: Iterable[IpfixRecord]) -> List[AggRecord]:
        """Aggregate one hour of IPFIX into feature-indexed records.

        Records with an hour differing from ``hour`` are rejected — the
        pipeline's hour-chunking is strict (paper §5.1.1 builds everything
        on hour windows).  The record-path reference: no production path
        calls it; :meth:`aggregate_hour_columns` is tested against it, and
        the end-to-end benchmark's replay workload runs it as its in-run
        oracle.
        """
        sums: Dict[Tuple[int, int, int, int, int, int], float] = {}
        count_in = 0
        dropped = 0
        for record in records:
            if record.hour != hour:
                raise ValueError(
                    f"record hour {record.hour} does not match chunk {hour}")
            count_in += 1
            try:
                if record.bytes <= 0.0:
                    raise ValueError(
                        f"non-positive byte count {record.bytes!r}")
                region, service = self._dest_features(record.dest_prefix_id)
            except (KeyError, ValueError) as exc:
                if self.strict:
                    raise ValueError(
                        f"cannot aggregate record {record!r}: {exc}"
                    ) from exc
                dropped += 1
                continue
            loc = self._location(record.src_prefix_id)
            key = (record.link_id, record.src_asn, record.src_prefix_id,
                   loc, region, service)
            sums[key] = sums.get(key, 0.0) + record.bytes
        out = [
            AggRecord(hour, link_id, src_asn, src_prefix, loc, region,
                      service, total)
            for (link_id, src_asn, src_prefix, loc, region, service), total
            in sums.items()
        ]
        self.stats.records_in += count_in
        self.stats.records_out += len(out)
        self.stats.records_dropped += dropped
        self._observe_hour(count_in, len(out), dropped)
        return out

    # -- vectorised path ---------------------------------------------------

    def _raise_for_row(self, hour: int, link_ids: np.ndarray,
                       src_prefix_ids: np.ndarray, src_asns: np.ndarray,
                       dest_prefix_ids: np.ndarray, bytes_: np.ndarray,
                       row: int) -> None:
        """Re-derive and raise the exact per-record strict-mode error."""
        record = IpfixRecord(hour, int(link_ids[row]),
                             int(src_prefix_ids[row]), int(src_asns[row]),
                             int(dest_prefix_ids[row]), float(bytes_[row]))
        try:
            if record.bytes <= 0.0:
                raise ValueError(f"non-positive byte count {record.bytes!r}")
            self.metadata.destination_features(record.dest_prefix_id)
        except (KeyError, ValueError) as exc:
            raise ValueError(
                f"cannot aggregate record {record!r}: {exc}") from exc
        raise AssertionError(f"row {row} flagged invalid but re-validates")

    @staticmethod
    def _join(table: "SortedTable", ids: np.ndarray,
              lookup: Callable[[int], object],
              fail: Optional[Callable[[int], None]] = None,
              ) -> Tuple[np.ndarray, np.ndarray]:
        """``(joined, codes)`` per id, by look-up in ``table``.

        Ids it does not hold are walked through ``lookup`` first, in
        first-occurrence order (the serial walk's, so encoders assign
        the same codes); one that cannot be joined goes to ``fail`` with
        its position (strict) or stays out, unjoined (lenient).
        """
        joined, codes = table.find(ids)
        if joined.all():
            return joined, codes
        missing = np.flatnonzero(~joined)
        new_ids, first = np.unique(ids[missing], return_index=True)
        found: Dict[int, object] = {}
        for ui in np.argsort(first, kind="stable").tolist():
            try:
                found[int(new_ids[ui])] = lookup(int(new_ids[ui]))
            except (KeyError, ValueError):
                if fail is not None:
                    fail(int(missing[first[ui]]))
        table.add(np.array(list(found), dtype=np.int64),
                  np.array(list(found.values()), dtype=np.int64))
        return table.find(ids)

    def aggregate_hour_columns(
        self,
        hour: int,
        link_ids: np.ndarray,
        src_prefix_ids: np.ndarray,
        src_asns: np.ndarray,
        dest_prefix_ids: np.ndarray,
        bytes_: np.ndarray,
        hours: Optional[np.ndarray] = None,
    ) -> AggColumns:
        """Aggregate one hour given as aligned columns (the fast path).

        Semantics match :meth:`aggregate_hour` exactly, including the
        order encoders assign codes in and the order of the returned
        rows (first-seen key order), so the two paths are
        interchangeable mid-stream — the result read as records
        (``to_records``) equals the serial output record for record.
        ``hours`` is optional; columnar producers that emit one hour at
        a time may omit it.
        """
        if hours is not None:
            mismatched = np.nonzero(np.asarray(hours) != hour)[0]
            if mismatched.size:
                raise ValueError(
                    f"record hour {int(np.asarray(hours)[mismatched[0]])} "
                    f"does not match chunk {hour}")
        link_ids = np.asarray(link_ids, dtype=np.int64)
        src_prefix_ids = np.asarray(src_prefix_ids, dtype=np.int64)
        src_asns = np.asarray(src_asns, dtype=np.int64)
        dest_prefix_ids = np.asarray(dest_prefix_ids, dtype=np.int64)
        bytes_ = np.asarray(bytes_, dtype=np.float64)
        n = len(bytes_)
        if n == 0:
            self._observe_hour(0, 0, 0)
            return AggColumns.of(hour, [])
        columns = (link_ids, src_prefix_ids, src_asns, dest_prefix_ids,
                   bytes_)

        bad_bytes = bytes_ <= 0.0
        # The strict path must fail on the same record the serial walk
        # fails on: nothing past the first bad-bytes row may be encoded.
        limit = n
        if self.strict and bad_bytes.any():
            limit = int(np.argmax(bad_bytes))
        good = ~bad_bytes
        good[limit:] = False
        good_rows = np.nonzero(good)[0]

        def fail(row: int) -> None:
            # the serial walk encoded, in order, every location before the
            # row it fails on: so must this path
            self._join(self._loc_table, src_prefix_ids[:row], self._location)
            self._raise_for_row(hour, *columns, row=row)

        joined, dest_codes = self._join(
            self._dest_table, dest_prefix_ids[good_rows], self._dest_features,
            (lambda at: fail(int(good_rows[at]))) if self.strict else None)
        if self.strict and limit < n:
            fail(limit)
        valid_rows = good_rows[joined]
        dropped = n - len(valid_rows)
        src = src_prefix_ids[valid_rows]
        _, src_loc = self._join(self._loc_table, src, self._location)

        # group-by over the full encoded feature tuple
        key_columns = (link_ids[valid_rows], src_asns[valid_rows], src,
                       src_loc, dest_codes[joined, 0], dest_codes[joined, 1])
        rep, sums = first_seen_sums(key_columns, bytes_[valid_rows])
        out = AggColumns(hour, *(column[rep] for column in key_columns),
                         sums)
        self.stats.records_in += n
        self.stats.records_out += out.n_records
        self.stats.records_dropped += dropped
        self._observe_hour(n, out.n_records, dropped)
        return out


class SortedTable:
    """Distinct int64 keys, kept sorted, each with an int64 payload.

    The look-up of both halves of the hourly write path: the joins here
    (prefix id -> feature codes) and ``core.training.DayCounts``'s row
    index.  ``width`` is a payload's shape (none: one int a key).
    """

    def __init__(self, *width: int) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._payload = np.empty((0, *width), dtype=np.int64)

    def find(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(held, payload)`` per key; payload is arbitrary where not held."""
        if not len(self._keys):
            return (np.zeros(len(keys), dtype=bool), np.zeros(
                (len(keys), *self._payload.shape[1:]), dtype=np.int64))
        at = np.searchsorted(self._keys, keys)
        at[at == len(self._keys)] = 0
        return self._keys[at] == keys, self._payload[at]

    def add(self, keys: np.ndarray, payload: np.ndarray) -> None:
        """Merge in distinct keys the table does not hold yet."""
        order = np.argsort(keys, kind="stable")
        at = np.searchsorted(self._keys, keys[order])
        self._payload = np.insert(self._payload, at, payload.reshape(
            len(keys), *self._payload.shape[1:])[order], axis=0)
        self._keys = np.insert(self._keys, at, keys[order])


def first_seen_sums(key_columns: Sequence[np.ndarray], weights: np.ndarray,
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Group rows by key, summing ``weights`` per key in row order.

    Returns ``(rep, sums)`` with one entry per distinct key, in
    first-seen order: ``rep`` is the row each key first appears on (it
    carries the key's values) and ``sums`` its total.  ``bincount`` adds
    in input order, so each total is bit-identical to a serial walk's
    running ``sums.get(key, 0.0) + weight`` — the property the record
    path equivalences (here and in ``core.training``) rest on.
    """
    rep, group = first_seen_groups(key_columns)
    sums = np.bincount(group, weights=weights, minlength=len(rep))
    # bincount of no rows is int64 whatever the weights; sums are float64
    return rep, sums.astype(np.float64, copy=False)


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


def _combine_group_codes(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Mixed-radix encode aligned key columns into one int64 per row.

    Columns are folded into a running code using their value *range* as
    the radix (one O(n) min/max, no sort).  If the combined cardinality
    would overflow int64, the running code and the offending column are
    densified first, so arbitrary key magnitudes stay safe.
    """
    n = len(columns[0])
    combined = np.zeros(n, dtype=np.int64)
    cardinality = 1
    for column in columns:
        if n == 0:
            break
        lo = int(column.min())
        codes = column - lo
        radix = int(column.max()) - lo + 1
        if cardinality > (2 ** 62) // radix:
            # densify both sides before folding to keep codes small
            uniq_c, combined = np.unique(combined, return_inverse=True)
            combined = combined.ravel().astype(np.int64)
            cardinality = max(len(uniq_c), 1)
            uniq_k, codes = np.unique(codes, return_inverse=True)
            codes = codes.ravel()
            radix = max(len(uniq_k), 1)
            if cardinality > (2 ** 62) // radix:
                raise ValueError(
                    "group key cardinality exceeds int64 mixed-radix range")
        combined = combined * radix + codes
        cardinality *= radix
    return combined
