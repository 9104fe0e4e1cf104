"""``AggColumns`` and its two edges: ``of`` (anything -> columns) and
``to_records`` (columns read as a ``Sequence[AggRecord]``)."""

import numpy as np
import pytest

from repro.pipeline import AggColumns, AggRecord

RECORDS = [AggRecord(7, link, 64500 + link, 10 * link, -1, 2, 1, 1.5 * link)
           for link in (3, 1, 2)]


@pytest.fixture()
def columns():
    return AggColumns.of(7, RECORDS)


class TestOf:
    def test_transposes_a_record_list(self, columns):
        assert columns.hour == 7 and columns.n_records == 3
        assert columns.link_ids.tolist() == [3, 1, 2]
        assert columns.src_locs.tolist() == [-1, -1, -1]
        assert [c.dtype for c in columns[1:]] == [np.int64] * 6 + [np.float64]

    def test_columns_and_views_pass_through(self, columns):
        assert AggColumns.of(7, columns) is columns
        assert AggColumns.of(7, columns.to_records()) is columns
        assert AggColumns.of(7, columns.to_records()[1:]).n_records == 2

    def test_empty_hour(self):
        empty = AggColumns.of(9, [])
        assert empty.hour == 9 and empty.n_records == 0
        assert [c.dtype for c in empty[1:]] == [np.int64] * 6 + [np.float64]

    def test_any_other_hour_is_refused(self, columns):
        stray = RECORDS + [RECORDS[0]._replace(hour=31)]
        with pytest.raises(ValueError, match="hour 31 .* hour 7"):
            AggColumns.of(7, stray)
        for shape in (RECORDS, tuple(RECORDS), columns,
                      columns.to_records()):
            with pytest.raises(ValueError, match="hour 7 .* hour 8"):
                AggColumns.of(8, shape)


class TestRecordsView:
    def test_is_a_sequence_of_real_records(self, columns):
        view = columns.to_records()
        assert len(view) == 3
        assert view[0] == RECORDS[0] and view[-1] == RECORDS[2]
        assert all(type(record) is AggRecord for record in view)
        assert all(type(field) is int for field in view[1][:-1])
        assert type(view[1].bytes) is float
        assert view[1].context == RECORDS[1].context
        assert view.index(RECORDS[1]) == 1 and RECORDS[2] in view
        with pytest.raises(IndexError):
            view[3]

    def test_equality_with_lists_from_either_side(self, columns):
        view = columns.to_records()
        assert view == RECORDS and RECORDS == view
        assert not (view != RECORDS) and not (RECORDS != view)
        assert view == AggColumns.of(7, RECORDS).to_records()
        assert view[:-1] != RECORDS and RECORDS != view[:-1]
        assert view[:-1] == RECORDS[:-1]
        assert view != RECORDS[::-1]
        assert view != tuple(RECORDS)   # a list or a view, nothing looser

    def test_slices_stay_views_over_the_columns(self, columns):
        head = columns.to_records()[:-1]
        assert len(head) == 2 and list(head) == RECORDS[:-1]
        assert head.columns.hour == 7
        assert np.shares_memory(head.columns.bytes, columns.bytes)
        assert list(columns.to_records()[::-1]) == RECORDS[::-1]
