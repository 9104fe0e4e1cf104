"""Differential property test: the searchsorted splice vs the stable
argsort, and the lookup-table groupings vs ``np.unique``.

A derived expansion interleaves the rows it kept from its base with the
rows resolved again (``repro.util.cache.interleaved`` / ``spliced``),
and the split memo merges its new keys the same way.  The two sides are
each ascending and share no row, though a row may repeat within a side.
The reference is what the splice replaced: the two sides concatenated
and put in order by a stable argsort.  Whatever the sides — either or
both empty, one row or many shares a row, values of either dtype — the
two must give the same array, dtype and all.

``IngressSimulator.resolve_shares`` groups destination prefixes and
(pocket, table) pairs by lookup table (``_grouped``) and other keys by
one stable argsort (``_unique_index``); both must answer what
``np.unique`` answers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.simulator import _grouped, _unique_index
from repro.util.cache import interleaved, spliced

#: a row set and how often each row repeats (a row's shares)
rows = st.lists(st.tuples(st.integers(0, 60), st.integers(1, 3)),
                max_size=40)


def side(picked, taken):
    """The ascending rows of ``picked`` not in ``taken``, each repeated."""
    chosen = sorted({row: times for row, times in picked
                     if row not in taken}.items())
    return np.array([row for row, times in chosen for _ in range(times)],
                    dtype=np.int64)


class TestSplice:
    @given(rows, rows, st.sampled_from([np.int64, np.float64]),
           st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_stable_argsort(self, kept, new, dtype, seed):
        kept = side(kept, set())
        new = side(new, set(kept.tolist()))
        rng = np.random.default_rng(seed)
        kept_values = rng.integers(-9, 9, len(kept)).astype(dtype)
        new_values = rng.integers(-9, 9, len(new)).astype(dtype)
        order = np.argsort(np.concatenate((kept, new)), kind="stable")
        places = interleaved(kept, new)
        for mine_in, theirs_in in ((kept, new), (kept_values, new_values)):
            mine = spliced(mine_in, theirs_in, *places)
            theirs = np.concatenate((mine_in, theirs_in))[order]
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)


class TestGroupings:
    @given(st.lists(st.integers(0, 50), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_lookup_table_equals_np_unique(self, codes):
        codes = np.array(codes, dtype=np.int64)
        distinct, place = _grouped(codes, 51)
        want, want_place = np.unique(codes, return_inverse=True)
        assert np.array_equal(distinct, want)
        assert np.array_equal(place, want_place.reshape(-1))

    # a few small keys, so that most repeat, and int64-wide ones
    @given(st.lists(st.one_of(st.integers(-3, 3),
                              st.integers(-2**63, 2**63 - 1)), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_one_stable_argsort_equals_np_unique(self, keys):
        keys = np.array(keys, dtype=np.int64)
        first_at, place = _unique_index(keys)
        _, want_first, want_place = np.unique(
            keys, return_index=True, return_inverse=True)
        assert np.array_equal(first_at, want_first)
        assert np.array_equal(place, want_place.reshape(-1))
