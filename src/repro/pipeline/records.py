"""Record types flowing through the data pipeline.

``AggRecord`` is the unit TIPSY trains on: IPFIX joined with metadata and
aggregated into hour-long chunks, indexed by only the features TIPSY uses
(paper §4.2).  String features (location, region, service) are ordinal-
encoded to ints by the aggregation stage; ``FlowContext`` carries the same
feature fields without the hour/link/bytes, and is what models receive at
prediction time.

An aggregated hour travels as ``AggColumns`` — one array per field —
from the aggregator into the service's window table and down the
daemon's shard pipes; no stage builds row objects.  ``AggColumns.of`` is
the one edge where an ``AggRecord`` list becomes columns, and
``to_records`` the one view back: a sequence of real ``AggRecord``
that keeps its columns, so ``ingest_hour`` takes it at no cost.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Sequence, Union, overload

import numpy as np

#: encoded value used when the Geo-IP database has no entry for a prefix
UNKNOWN_LOCATION = -1


class AggRecord(NamedTuple):
    """One hourly, feature-indexed, metadata-joined traffic observation."""

    hour: int
    link_id: int
    src_asn: int
    src_prefix: int
    src_loc: int        # ordinal-encoded metro (UNKNOWN_LOCATION if absent)
    dest_region: int    # ordinal-encoded region
    dest_service: int   # ordinal-encoded service type
    bytes: float

    @property
    def context(self) -> "FlowContext":
        return FlowContext(self.src_asn, self.src_prefix, self.src_loc,
                           self.dest_region, self.dest_service)


class FlowContext(NamedTuple):
    """The full feature tuple of a flow aggregate, without measurement."""

    src_asn: int
    src_prefix: int
    src_loc: int
    dest_region: int
    dest_service: int


class AggColumns(NamedTuple):
    """One aggregated hour in columnar form (aligned numpy arrays).

    The columnar twin of a ``List[AggRecord]``: same rows, same order,
    one ``int64`` array per key field and ``float64`` bytes.  This is
    what the vectorised aggregation path produces, what every
    ``ingest_hour`` trains from and what crosses process boundaries —
    arrays serialise orders of magnitude faster than per-record objects.
    """

    hour: int
    link_ids: np.ndarray
    src_asns: np.ndarray
    src_prefixes: np.ndarray
    src_locs: np.ndarray
    dest_regions: np.ndarray
    dest_services: np.ndarray
    bytes: np.ndarray

    @property
    def n_records(self) -> int:
        return len(self.bytes)

    @classmethod
    def of(cls, hour: int, records: "AggHour") -> "AggColumns":
        """The columns of ``hour``'s records, whichever form they come in.

        Columns (or a :meth:`to_records` view of them) pass through; any
        other sequence of ``AggRecord`` is transposed once.  Raises
        ``ValueError`` when a record is labelled with another hour — it
        would otherwise silently train the wrong day.
        """
        if isinstance(records, AggRecords):
            records = records.columns
        if not isinstance(records, AggColumns):
            fields = list(zip(*records)) or [()] * len(AggRecord._fields)
            hours = np.array(fields[0], dtype=np.int64)
            strays = hours[hours != hour]
            records = cls(int(strays[0]) if strays.size else hour,
                          *(np.array(field, dtype=np.int64)
                            for field in fields[1:-1]),
                          np.array(fields[-1], dtype=np.float64))
        if records.hour != hour:
            raise ValueError(f"records of hour {records.hour} handed in as "
                             f"hour {hour}")
        return records

    def to_records(self) -> "AggRecords":
        """The same rows as a sequence of ``AggRecord``, in row order."""
        return AggRecords(self)


#: one aggregated hour, in either form ``ingest_hour`` accepts
AggHour = Union[AggColumns, Sequence[AggRecord]]


class AggRecords(Sequence[AggRecord]):
    """An :class:`AggColumns` read as a ``Sequence[AggRecord]``.

    Rows become ``AggRecord`` objects only when asked for (indexing,
    iteration, ``==`` against a list); a slice is again a view.  The
    columns stay attached, which is what ``AggColumns.of`` reads.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: AggColumns):
        self.columns = columns

    def __len__(self) -> int:
        return self.columns.n_records

    def __iter__(self) -> Iterator[AggRecord]:
        hour, *columns = self.columns
        # tuple.__new__ avoids the per-record Python constructor frame
        return map(tuple.__new__, itertools.repeat(AggRecord), zip(
            itertools.repeat(hour), *(column.tolist() for column in columns)))

    @overload
    def __getitem__(self, index: int) -> AggRecord: ...

    @overload
    def __getitem__(self, index: slice) -> "AggRecords": ...

    def __getitem__(self, index: Union[int, slice],
                    ) -> Union[AggRecord, "AggRecords"]:
        hour, *columns = self.columns
        if isinstance(index, slice):
            return AggRecords(AggColumns(
                hour, *(column[index] for column in columns)))
        return AggRecord(hour, *(column[index].item() for column in columns))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (AggRecords, list)):
            return list(self) == list(other)
        return NotImplemented
