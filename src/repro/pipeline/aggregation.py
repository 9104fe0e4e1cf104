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
the columnar path joins by indexing a :class:`PrefixJoin` array with the
prefix ids and walks only prefixes it has not joined before, in the
serial walk's order.

Every group-by on the write path — an hour's, a day table's new keys,
``core.training.fold_keyed``, a model build, the CMS totals — is
:func:`first_seen_groups`, and a model's ranking order is
:func:`sorted_rows`: both sort each row's mixed-radix key code with the
row in its low bits, so numpy's unstable (SIMD) sort yields the stable
order without a stable sort.  :class:`SortedTable`, a day table's row
index, searches for its needles in ascending order.
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
        # the same joins for a column of ids, filled from the caches
        dest_ids, src_ids = metadata.id_ranges()
        self._dest_join = PrefixJoin(dest_ids, 2)   # region, service
        self._loc_join = PrefixJoin(src_ids, 1)

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

        bad = bytes_ <= 0.0
        # The strict path must fail on the same record the serial walk
        # fails on: nothing past the first bad-bytes row may be encoded.
        limit = n
        if self.strict and bad.any():
            limit = int(np.argmax(bad))
            bad[limit:] = True

        def fail(row: int) -> None:
            # the serial walk encoded, in order, every location before the
            # row it fails on: so must this path
            self._loc_join.join(src_prefix_ids[:row], self._location)
            self._raise_for_row(hour, *columns, row=row)

        dest_slots = self._dest_join.slots(dest_prefix_ids)
        region, service = self._dest_join.find(dest_slots)
        unjoined = region == UNJOINED
        if unjoined.any():
            walk = np.flatnonzero(unjoined & ~bad)
            self._dest_join.walk(
                dest_prefix_ids[walk], dest_slots[walk], self._dest_features,
                (lambda at: fail(int(walk[at]))) if self.strict else None)
            region, service = self._dest_join.find(dest_slots)
            unjoined = region == UNJOINED
        if limit < n:
            fail(limit)
        # gather the valid rows only when a row was dropped
        keep = [link_ids, src_asns, src_prefix_ids, region, service, bytes_]
        invalid = bad | unjoined
        dropped = int(np.count_nonzero(invalid))
        if dropped:
            rows = np.flatnonzero(~invalid)
            keep = [column[rows] for column in keep]
        link, asn, src, region, service, weights = keep
        src_loc = self._loc_join.join(src, self._location)

        # group-by over the full encoded feature tuple
        key_columns = (link, asn, src, src_loc, region, service)
        rep, sums = first_seen_sums(key_columns, weights)
        out = AggColumns(hour, *(column[rep] for column in key_columns),
                         sums)
        self.stats.records_in += n
        self.stats.records_out += out.n_records
        self.stats.records_dropped += dropped
        self._observe_hour(n, out.n_records, dropped)
        return out


#: a join slot's codes until its id is walked
UNJOINED = np.iinfo(np.int64).min


class PrefixJoin:
    """Prefix id -> int64 feature codes, as arrays indexed by id.

    The columnar twin of an aggregator's dict-cached join: ``width``
    arrays (one per feature), with a slot per id in ``ids`` (the range a
    ``MetadataStore`` knows, so the arrays are sized by the store, never
    by the ids a trace carries) and one spare last slot that every id
    outside the range shares.  A slot stays :data:`UNJOINED` until its
    id is walked, and an id that cannot be joined leaves it so.  The
    spare slot is walked like any other: its first id joins to what
    every id the store cannot know joins to (no location for a source,
    a miss for a destination).
    """

    def __init__(self, ids: range, width: int) -> None:
        self._ids = ids
        self.codes = tuple(np.full(len(ids) + 1, UNJOINED, dtype=np.int64)
                           for _ in range(width))

    def slots(self, ids: np.ndarray) -> np.ndarray:
        """Each id's slot, the spare one outside the range: an id below
        it wraps past its end as uint64, so one clip catches both ends."""
        offsets = (ids - self._ids.start).view(np.uint64)
        return np.minimum(offsets, len(self._ids)).view(np.int64)

    def find(self, slots: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Each feature's codes at ``slots``."""
        return tuple(column.take(slots) for column in self.codes)

    def walk(self, ids: np.ndarray, slots: np.ndarray,
             lookup: Callable[[int], Sequence[int]],
             fail: Optional[Callable[[int], None]] = None) -> None:
        """Fill the slots at ``slots`` with ``lookup`` of their ``ids``.

        Ids go in first-occurrence order (the serial walk's, so encoders
        assign the same codes); one that cannot be joined goes to
        ``fail`` with its position (strict) or stays unjoined (lenient).
        """
        for at in first_seen_groups((slots,))[0].tolist():
            try:
                codes = lookup(int(ids[at]))
            except (KeyError, ValueError):
                if fail is not None:
                    fail(at)
                continue
            for column, code in zip(self.codes, codes):
                column[slots[at]] = code

    def join(self, ids: np.ndarray,
             lookup: Callable[[int], int]) -> np.ndarray:
        """Each id's code (one feature), walking the ids not joined yet
        through ``lookup``, which must join every id it is given."""
        slots = self.slots(ids)
        codes, = self.find(slots)
        walk = np.flatnonzero(codes == UNJOINED)
        if walk.size:
            self.walk(ids[walk], slots[walk],
                      lambda prefix_id: (lookup(prefix_id),))
            codes, = self.find(slots)
        return codes


class SortedTable:
    """Distinct int64 keys, kept sorted, each with an int64 payload.

    ``core.training.DayCounts``'s row index: a row's mixed-radix key
    code -> its row number.  Keys are looked up a batch at a time: the
    batch is sorted and binary-searched in ascending order (each search
    starts where the last one ended, so the table is read front to
    back), then put back in the order it came in.
    """

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._payload = np.empty(0, dtype=np.int64)

    def find(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(held, payload)`` per key; payload is arbitrary where not held."""
        if not len(self._keys):
            return (np.zeros(len(keys), dtype=bool),
                    np.zeros(len(keys), dtype=np.int64))
        order = np.argsort(keys)
        at = np.empty(len(keys), dtype=np.int64)
        at[order] = np.searchsorted(self._keys, keys[order])
        at[at == len(self._keys)] = 0
        return self._keys[at] == keys, self._payload[at]

    def add(self, keys: np.ndarray, payload: np.ndarray) -> None:
        """Merge in distinct keys the table does not hold yet."""
        order = np.argsort(keys)
        at = np.searchsorted(self._keys, keys[order])
        self._payload = np.insert(self._payload, at, payload[order])
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
    appears on, ``group`` each row's key number (``rep``'s index).  In
    the stable key order (:func:`_stable_order`) each run of equal codes
    starts on its key's first row; marked, those rows read in row order
    are ``rep``, and their running count numbers the keys.
    """
    codes = _combine_group_codes(key_columns)
    n = len(codes)
    order, runs = _stable_order(codes)
    starts = np.empty(n, dtype=bool)
    starts[:1] = True
    np.not_equal(runs[1:], runs[:-1], out=starts[1:])
    first = order[starts]
    seen = np.zeros(n, dtype=bool)
    seen[first] = True
    number = np.cumsum(seen, dtype=np.int64) - 1
    group = np.empty(n, dtype=np.int64)
    group[order] = number[first][np.cumsum(starts, dtype=np.int64) - 1]
    return np.flatnonzero(seen), group


def sorted_rows(key_columns: Sequence[np.ndarray]) -> np.ndarray:
    """The stable order of rows sorted by integer key columns, the first
    column most significant: ``np.lexsort(key_columns[::-1])``, from one
    sort of the rows' mixed-radix codes."""
    return _stable_order(_combine_group_codes(key_columns))[0]


def _stable_order(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.argsort(codes, kind="stable")`` for non-negative int64
    codes, and the codes (or their dense ranks) in that order.

    ``code << bits | row``, with ``bits`` enough to hold any row, is
    distinct per row, so numpy's unstable (SIMD) sort of it is the
    stable order: the low bits are the row, the high bits the code.
    Codes too wide to sit beside the row are ranked densely first (a
    ``np.unique`` that returns no first rows sorts unstably).
    """
    n = len(codes)
    bits = max(n - 1, 0).bit_length()
    if int(codes.max(initial=0)) >> (63 - bits):
        codes = np.unique(codes, return_inverse=True)[1].ravel()
    ranked = np.sort(codes << bits | np.arange(n, dtype=np.int64))
    return ranked & ((1 << bits) - 1), ranked >> bits


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
