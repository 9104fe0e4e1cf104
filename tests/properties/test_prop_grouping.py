"""Differential property test: the unstable-sort grouping vs the stable one.

``first_seen_groups``, ``sorted_rows`` and ``SortedTable`` are the
group-by and row index under the aggregator, ``fold_keyed``,
``DayCounts``, the model build and the CMS totals.  They sort each
row's mixed-radix code made distinct by the row in its low bits
(``code << bits | row``) with numpy's unstable sort, and search a table
for needles in ascending order.  The reference is what they replaced
(``tests/pipeline/grouping_oracle.py``): ``np.unique`` with first rows
(a stable argsort), a stable argsort, and a binary search of each
needle in turn.  Whatever the columns — none to six, of up to 3 000
rows, in ranges so tiny that most rows repeat a key, at multiples of
2**40, at int64's extremes, or spanning exactly 2**62 so that a code
has no room beside the row and the codes are ranked densely first —
the two must give the same arrays, dtype and all.  Hand mutants this
suite kills (each applied to a copy, seen to fail here): the row
dropped from the composite (an unstable order among equal keys); no
densify before an overflowing composite; groups numbered in key order
rather than first-seen order; a table's needles searched in sorted
order and not un-permuted.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pipeline.aggregation import (SortedTable, first_seen_groups,
                                        sorted_rows)
from tests.pipeline import grouping_oracle as oracle

INT64 = np.iinfo(np.int64)

#: how a column's values are drawn: a tiny range (many duplicate keys),
#: small multiples of 2**40 (two such columns cannot share 62 bits of
#: mixed radix), int64's extremes (one column cannot), or a range of
#: exactly 2**62 (codes with no room beside the row)
KINDS = ("tiny", "wide", "extreme", "quarter")


def column(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    if kind == "tiny":
        return rng.integers(-1, 2, n)
    if kind == "wide":
        return rng.integers(-3, 4, n) * 2 ** 40
    if kind == "extreme":
        return rng.choice(np.array([INT64.min, INT64.max, 0, -1]), n)
    return rng.choice(np.array([-2 ** 61, 2 ** 61 - 1, 0]), n)


def same(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.tolist() == expected.tolist()


@settings(max_examples=120, deadline=None)
@given(kinds=st.lists(st.sampled_from(KINDS), max_size=6),
       n=st.integers(0, 3000), seed=st.integers(0, 2 ** 32 - 1))
@example(kinds=["quarter"], n=3, seed=0)
@example(kinds=["tiny", "wide"], n=3000, seed=1)
@example(kinds=["extreme", "tiny"], n=50, seed=2)
def test_grouping_matches_the_stable_sorts(kinds, n, seed):
    rng = np.random.default_rng(seed)
    columns = [column(rng, kind, n) for kind in kinds]
    if not columns:     # no key: both fail alike
        for group_by in (first_seen_groups, sorted_rows,
                         oracle.first_seen_groups, oracle.sorted_rows):
            with pytest.raises(IndexError):
                group_by(columns)
        return
    rep, group = first_seen_groups(columns)
    expected_rep, expected_group = oracle.first_seen_groups(columns)
    same(rep, expected_rep)
    same(group, expected_group)
    same(sorted_rows(columns), oracle.sorted_rows(columns))


#: keys near zero (neighbours, so the binary searches land between
#: them) or anywhere in int64, extremes included
keys = st.one_of(st.integers(-20, 20),
                 st.integers(int(INT64.min), int(INT64.max)),
                 st.sampled_from([int(INT64.min), int(INT64.max)]))


@settings(max_examples=120, deadline=None)
@given(batches=st.lists(st.tuples(st.lists(keys, max_size=40),
                                  st.lists(keys, max_size=60)),
                        max_size=6))
@example(batches=[([], [3, 1])])
@example(batches=[([5, -2, 9], [9, 9, 5, 7, -2, int(INT64.max)])])
def test_sorted_table_matches_the_unsorted_search(batches):
    """Batches of distinct new keys added with payloads, each followed
    by needles in any order, repeats and absent keys among them."""
    table, reference = SortedTable(), oracle.SortedTable()
    held = set()
    for added, needles in batches:
        new = np.array(list(dict.fromkeys(k for k in added
                                          if k not in held)),
                       dtype=np.int64)
        held.update(new.tolist())
        payload = np.arange(len(held) - len(new), len(held),
                            dtype=np.int64)[::-1]
        table.add(new, payload)
        reference.add(new, payload)
        same(table._keys, reference._keys)
        same(table._payload, reference._payload)
        needles = np.array(needles, dtype=np.int64)
        found, at = table.find(needles)
        expected_found, expected_at = reference.find(needles)
        same(found, expected_found)
        assert found.tolist() == [k in held for k in needles.tolist()]
        same(at[found], expected_at[expected_found])
