"""Tests for the day table, its fold, and the record-path counts oracle."""

import numpy as np
import pytest

from repro.core import FEATURES_A, FEATURES_AP, HistoricalModel
from repro.core.training import DayCounts, fold_keyed
from repro.pipeline import AggColumns, AggRecord, FlowContext
from tests.core.counts_oracle import CountsAccumulator
from tests.core.historical_oracle import DictHistoricalModel


def ctx(prefix, asn=1):
    return FlowContext(asn, prefix, 0, 0, 0)


def rec(hour, link, prefix, bytes_, asn=1):
    return AggRecord(hour, link, asn, prefix, 0, 0, 0, bytes_)


class TestAccumulation:
    """The oracle itself (``tests/core/counts_oracle.py``)."""

    def test_consume_hour(self):
        acc = CountsAccumulator()
        acc.consume_hour(0, [rec(0, 5, 1, 10.0), rec(0, 5, 1, 5.0)])
        acc.consume_hour(1, [rec(1, 5, 1, 5.0)])
        assert acc.counts[(ctx(1), 5)] == 20.0
        assert acc.total_bytes() == 20.0
        assert len(acc) == 1

    def test_add_ignores_nonpositive(self):
        acc = CountsAccumulator()
        acc.add(ctx(1), 5, 0.0)
        acc.add(ctx(1), 5, -3.0)
        assert len(acc) == 0

    def test_fit_trains_and_finalizes(self):
        acc = CountsAccumulator()
        acc.add(ctx(1), 5, 10.0)
        acc.add(ctx(1), 7, 30.0)
        ap = DictHistoricalModel(FEATURES_AP)
        a = DictHistoricalModel(FEATURES_A)
        acc.fit([ap, a])
        assert ap.predict(ctx(1), 1)[0].link_id == 7
        assert a.predict(ctx(99), 1)[0].link_id == 7  # pooled at A grain

    def test_actuals_reshape(self):
        acc = CountsAccumulator()
        acc.add(ctx(1), 5, 10.0)
        acc.add(ctx(1), 7, 2.0)
        acc.add(ctx(2), 5, 1.0)
        actuals = acc.actuals()
        assert actuals[ctx(1)] == {5: 10.0, 7: 2.0}
        assert actuals[ctx(2)] == {5: 1.0}

    def test_top1_links(self):
        acc = CountsAccumulator()
        acc.add(ctx(1), 5, 10.0)
        acc.add(ctx(1), 7, 30.0)
        acc.add(ctx(2), 9, 1.0)
        assert acc.top1_links() == {ctx(1): 7, ctx(2): 9}

    def test_top1_tie_break_lowest_link(self):
        acc = CountsAccumulator()
        acc.add(ctx(1), 9, 10.0)
        acc.add(ctx(1), 5, 10.0)
        assert acc.top1_links()[ctx(1)] == 5


class TestProjection:
    def test_project_groups_by_feature_key(self):
        acc = CountsAccumulator()
        acc.add(ctx(1), 5, 10.0)          # same A-key as the next two
        acc.add(ctx(2), 5, 4.0)
        acc.add(ctx(2), 7, 1.0)
        acc.add(ctx(1, asn=2), 5, 8.0)    # different AS
        projection = acc.project(FEATURES_A)
        assert projection == {
            (1, 0, 0): {5: 14.0, 7: 1.0},
            (2, 0, 0): {5: 8.0},
        }

    def test_project_matches_observe_path(self):
        """A model built from the table's projection ranks as the dict
        oracle trained record by record does, to the bit."""
        acc = CountsAccumulator()
        acc.add(ctx(1), 5, 0.7)
        acc.add(ctx(2), 5, 1.9)
        acc.add(ctx(3), 7, 2.2)
        reference = DictHistoricalModel(FEATURES_A)
        acc.fit([reference])
        table = DayCounts.from_arrays(acc.to_arrays())
        via_projection = HistoricalModel.from_arrays(
            table.project(FEATURES_A), FEATURES_A)
        assert via_projection.rankings() == reference.rankings()


class TestFoldKeyed:
    @staticmethod
    def _table(k0, k1, value):
        return {"k0": np.array(k0, dtype=np.int64),
                "k1": np.array(k1, dtype=np.int64),
                "value": np.array(value, dtype=np.float64)}

    def test_stacks_in_order_and_sums_in_row_order(self):
        first = self._table([7, 3, 7], [1, 1, 2], [1e16, 2.0, 4.0])
        second = self._table([3, 7, 9], [1, 1, 1], [0.5, 1.0, 8.0])
        third = self._table([7], [1], [-1e16])
        handed_in = [column.tobytes() for table in (first, second, third)
                     for column in table.values()]
        folded = fold_keyed([first, second, third], 2)
        assert list(folded) == ["k0", "k1", "value"]
        assert folded["k0"].tolist() == [7, 3, 7, 9]     # first-seen order
        assert folded["k1"].tolist() == [1, 1, 2, 1]
        # (1e16 + 1.0) - 1e16 in that order is 0.0, not the exact 1.0
        assert folded["value"].tolist() == [0.0, 2.5, 4.0, 8.0]
        assert handed_in == [column.tobytes()
                             for table in (first, second, third)
                             for column in table.values()]

    def test_no_tables_fold_to_an_empty_table(self):
        folded = fold_keyed((), 3)
        assert list(folded) == ["k0", "k1", "k2", "value"]
        assert [column.dtype for column in folded.values()] == [
            np.int64, np.int64, np.int64, np.float64]
        assert all(len(column) == 0 for column in folded.values())


class TestDayCounts:
    """Hand cases; tests/properties/test_prop_daycounts.py is the
    differential against ``CountsAccumulator``."""

    def _table(self):
        table = DayCounts()
        table.add_hour(AggColumns.of(0, [
            rec(0, 5, 2, 10.0), rec(0, 4, 1, 1.0), rec(0, 5, 2, 5.0)]))
        table.add_hour(AggColumns.of(1, []))
        table.add_hour(AggColumns.of(1, [
            rec(1, 4, 1, 2.0), rec(1, 6, 2, 4.0, asn=3)]))
        return table

    def test_folds_to_distinct_keys_in_first_seen_order(self):
        arrays = self._table().to_arrays()
        assert list(arrays) == ["k0", "k1", "k2", "k3", "k4", "k5", "value"]
        assert arrays["k1"].tolist() == [2, 1, 2]      # src_prefix
        assert arrays["k5"].tolist() == [5, 4, 6]      # link
        assert arrays["value"].tolist() == [15.0, 3.0, 4.0]

    def test_rows_read_the_table_in_row_order(self):
        table = self._table()
        assert len(table) == 3 and len(DayCounts()) == 0
        assert list(table.rows()) == [
            (ctx(2), 5, 15.0), (ctx(1), 4, 3.0), (ctx(2, asn=3), 6, 4.0)]
        assert all(type(context) is FlowContext
                   for context, _link, _bytes in table.rows())

    def test_top1_links_ties_go_to_the_lower_link(self):
        table = DayCounts()
        table.add_hour(AggColumns.of(0, [
            rec(0, 9, 1, 10.0), rec(0, 7, 1, 3.0), rec(0, 5, 1, 10.0),
            rec(0, 4, 2, 1.0), rec(0, 2, 2, 1.0), rec(0, 6, 2, 1.0),
            rec(0, 8, 3, 2.0), rec(0, 1, 3, 1.0)]))
        assert table.top1_links() == {ctx(1): 5, ctx(2): 2, ctx(3): 8}
        assert self._table().top1_links() == {
            ctx(2): 5, ctx(1): 4, ctx(2, asn=3): 6}
        assert DayCounts().top1_links() == {}

    def test_fold_sums_each_key_in_row_order(self):
        contexts = [ctx(2), ctx(1), ctx(2), ctx(2, asn=3)]
        folded = DayCounts.fold(contexts, [5, 4, 5, 6], [10.0, 1.0, 5.0, 4.0])
        assert list(folded.rows()) == [
            (ctx(2), 5, 15.0), (ctx(1), 4, 1.0), (ctx(2, asn=3), 6, 4.0)]
        assert len(DayCounts.fold([], [], [])) == 0
        with pytest.raises(ValueError):
            DayCounts.fold([ctx(1)], [5], [0.0])

    def test_projects_onto_a_feature_grain(self):
        projection = self._table().project(FEATURES_A)
        assert {name: column.tolist()
                for name, column in projection.items()} == {
            "k0": [1, 1, 3], "k1": [0, 0, 0], "k2": [0, 0, 0],  # the A key
            "k3": [5, 4, 6],                                    # link
            "value": [15.0, 3.0, 4.0]}
        empty = DayCounts().project(FEATURES_AP)
        assert list(empty) == ["k0", "k1", "k2", "k3", "k4", "value"]
        assert all(len(column) == 0 for column in empty.values())

    def test_round_trips_and_keeps_folding(self):
        restored = DayCounts.from_arrays(self._table().to_arrays())
        restored.add_hour(AggColumns.of(2, [rec(2, 4, 1, 0.5)]))
        assert restored.to_arrays()["value"].tolist() == [15.0, 3.5, 4.0]

    def test_float_key_columns_are_refused_not_floored(self):
        hour = AggColumns.of(0, [rec(0, 5, 2, 10.0)])
        with pytest.raises(TypeError):
            DayCounts().add_hour(hour._replace(
                src_prefixes=np.array([2.5])))

    def test_float_keys_are_refused_on_the_indexed_path_too(self):
        table = self._table()            # has an index by now
        hour = AggColumns.of(2, [rec(2, 5, 2, 10.0)])
        with pytest.raises(TypeError):
            table.add_hour(hour._replace(link_ids=np.array([5.0])))
        assert table.to_arrays()["value"].tolist() == [15.0, 3.0, 4.0]

    def test_tables_handed_out_do_not_change_under_a_later_hour(self):
        table = self._table()
        handed_out = {"arrays": table.to_arrays(),
                      "grain": table.project(FEATURES_A)}
        before = {name: {column: (values.dtype, values.tobytes())
                         for column, values in columns.items()}
                  for name, columns in handed_out.items()}
        # one key the table holds (twice), one it does not
        table.add_hour(AggColumns.of(2, [
            rec(2, 5, 2, 1.0), rec(2, 9, 7, 2.0), rec(2, 5, 2, 0.25)]))
        assert table.to_arrays()["value"].tolist() == [16.25, 3.0, 4.0, 2.0]
        assert before == {name: {column: (values.dtype, values.tobytes())
                                 for column, values in columns.items()}
                          for name, columns in handed_out.items()}

    def test_read_only_arrays_are_adopted_and_still_take_hours(self):
        arrays = {name: column.copy()
                  for name, column in self._table().to_arrays().items()}
        for column in arrays.values():
            column.setflags(write=False)
        kept = {name: column.tobytes() for name, column in arrays.items()}
        restored = DayCounts.from_arrays(arrays)
        restored.add_hour(AggColumns.of(2, [
            rec(2, 4, 1, 0.5), rec(2, 8, 3, 6.0), rec(2, 4, 1, 0.5)]))
        assert restored.to_arrays()["value"].tolist() == [15.0, 4.0, 4.0, 6.0]
        assert restored.to_arrays()["k5"].tolist() == [5, 4, 6, 8]
        assert kept == {name: column.tobytes()
                        for name, column in arrays.items()}

    def test_outgrown_and_too_wide_ranges_equal_a_whole_fold(self):
        """Hour 1 lies outside the ranges hour 0 fixed (a re-index);
        hour 2's magnitudes cannot share 62 bits (whole folds from then
        on); the table is the fold of the stacked hours throughout."""
        hours = [
            [rec(0, 5, 2, 10.0), rec(0, 4, 3, 1.0)],
            [rec(1, 5, 2, 2.0), rec(1, 900, 40000, 3.0), rec(1, 5, 2, 4.0)],
            [rec(2, 4, 3, 8.0), rec(2, 5, 2**40, 1.0, asn=2**32 - 2)],
            [rec(3, 5, 2**40, 0.5, asn=2**32 - 2), rec(3, 4, 3, 0.125)],
        ]
        table, stacked = DayCounts(), []
        for hour, records in enumerate(hours):
            columns = AggColumns.of(hour, records)
            table.add_hour(columns)
            stacked.append(dict(zip(
                ("k0", "k1", "k2", "k3", "k4", "k5", "value"),
                (*columns[2:7], columns.link_ids, columns.bytes))))
            want = fold_keyed(stacked, 6)
            assert {name: column.tolist() for name, column
                    in table.to_arrays().items()} == {
                name: column.tolist() for name, column in want.items()}
        assert table.to_arrays()["value"].tolist() == [
            16.0, 9.125, 3.0, 1.5]
