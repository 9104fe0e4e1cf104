"""Tests for the bounded LRU mapping behind the simulator caches and
the answer memo behind the service and the daemon."""

import numpy as np
import pytest

from repro.util import LruDict
from repro.util.cache import AnswerMemo, ArrayLru


class TestLruDict:
    def test_put_get_roundtrip(self):
        cache: LruDict[str, int] = LruDict(capacity=4)
        cache.put("a", 1)
        cache["b"] = 2
        assert cache.get("a") == 1
        assert cache.get("b") == 2
        assert len(cache) == 2
        assert "a" in cache and "c" not in cache

    def test_counts_hits_and_misses(self):
        cache: LruDict[str, int] = LruDict(capacity=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("zzz") is None
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_uncounted_get(self):
        cache: LruDict[str, int] = LruDict(capacity=4)
        cache.put("a", 1)
        assert cache.get("a", count=False) == 1
        assert cache.get("zzz", count=False) is None
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.hit_rate == 0.0

    def test_evicts_least_recently_used(self):
        cache: LruDict[int, int] = LruDict(capacity=3)
        for key in (1, 2, 3):
            cache.put(key, key * 10)
        assert cache.get(1) == 10        # 1 is now most recent
        cache.put(4, 40)                 # evicts 2, the stalest
        assert cache.get(2) is None
        assert cache.get(1) == 10
        assert cache.get(3) == 30
        assert cache.evictions == 1
        assert len(cache) == 3

    def test_overwrite_refreshes_recency(self):
        cache: LruDict[int, int] = LruDict(capacity=2)
        cache.put(1, 10)
        cache.put(2, 20)
        cache.put(1, 11)                 # rewrite moves 1 to the fresh end
        cache.put(3, 30)                 # evicts 2
        assert cache.get(1) == 11
        assert cache.get(2) is None

    def test_falsy_values_still_hit(self):
        # a falsy value (an empty tuple, say) must not read as a miss
        cache: LruDict[str, tuple] = LruDict(capacity=2)
        cache.put("empty", ())
        assert cache.get("empty") == ()
        assert (cache.hits, cache.misses) == (1, 0)

    def test_unbounded_when_capacity_nonpositive(self):
        cache: LruDict[int, int] = LruDict(capacity=0)
        for key in range(1000):
            cache.put(key, key)
        assert len(cache) == 1000
        assert cache.evictions == 0

    def test_clear_keeps_counters(self):
        cache: LruDict[int, int] = LruDict(capacity=2)
        cache.put(1, 10)
        cache.get(1)
        cache.get(2)
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (1, 1)


def drive(capacity, batches):
    """The same batches of int keys through an ``ArrayLru`` (a batch at
    a time) and an ``LruDict`` (a key at a time: ``get`` of each, then
    ``put`` of each missed key, first seen first); a key's row is
    derived from the key.  Both, and each batch's two answers."""
    memo, loop = ArrayLru(capacity, 2), LruDict(capacity)
    answers = []
    for batch in batches:
        keys = np.array(batch, dtype=np.int64)
        rows, held = memo.get_many(keys)
        found = [loop.get(key) for key in batch]
        missed = list(dict.fromkeys(
            key for key, row in zip(batch, found) if row is None))
        memo.put_many(np.array(missed, dtype=np.int64),
                      np.array([[key, -key] for key in missed],
                               dtype=np.float64).reshape(-1, 2))
        for key in missed:
            loop.put(key, (float(key), float(-key)))
        answers.append((rows[held].tolist(),
                        [list(row) for row in found if row is not None]))
    return memo, loop, answers


class TestArrayLru:
    """``get_many`` over int keys, then ``put_many`` of the misses,
    equals a loop of ``get`` and ``put`` on an ``LruDict``: hits,
    misses, evictions, what is held and what it answers."""

    @pytest.mark.parametrize("capacity", [0, 1, 3, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_batches_equal_a_loop_of_get_and_put(self, capacity, seed):
        rng = np.random.default_rng(seed)
        # repeats within a batch, batches larger than the capacity, and
        # keys that come back after being evicted
        batches = [rng.integers(0, 12, int(rng.integers(0, 10))).tolist()
                   for _ in range(60)]
        memo, loop, answers = drive(capacity, batches)
        for mine, theirs in answers:
            assert mine == theirs
        assert (memo.hits, memo.misses, memo.evictions) == (
            loop.hits, loop.misses, loop.evictions)
        assert loop.evictions > 0 or capacity in (0, 8)
        assert len(memo) == len(loop)
        # the same keys held, in the same order of use: one key asked
        # at a time, each answers what the loop answers, and a put past
        # the capacity evicts the same stalest key
        for key in range(12):
            rows, held = memo.get_many(np.array([key], dtype=np.int64))
            row = loop.get(key)
            assert bool(held[0]) == (row is not None)
            if row is not None:
                assert tuple(rows[0]) == row

    def test_put_many_refuses_held_or_repeated_keys(self):
        memo = ArrayLru(4, 1)
        memo.put_many(np.array([1, 2], dtype=np.int64), np.ones((2, 1)))
        for keys in ([2, 3], [3, 3]):
            with pytest.raises(ValueError):
                memo.put_many(np.array(keys, dtype=np.int64),
                              np.ones((2, 1)))
        assert len(memo) == 2

    def test_evicted_rows_are_reused(self):
        """Rows an eviction frees hold later puts: the table stays at
        the capacity plus the largest put."""
        memo = ArrayLru(3, 1)
        for start in range(0, 30, 2):
            keys = np.arange(start, start + 2, dtype=np.int64)
            memo.put_many(keys, keys[:, None].astype(np.float64))
        assert len(memo) == 3 and memo.evictions == 27
        assert len(memo._rows) <= 5
        rows, held = memo.get_many(np.arange(26, 30, dtype=np.int64))
        assert held.tolist() == [False, True, True, True]
        assert rows[1:, 0].tolist() == [27.0, 28.0, 29.0]


class TestAnswerMemo:
    def test_lookup_counts_per_key_and_whole_lookups(self):
        memo: AnswerMemo[str, int, str] = AnswerMemo(size=8)
        assert memo.lookup("s", [1, 2, 2]) == ([None, None, None], 3)
        memo.store("s", {1: "one", 2: "two"})
        assert memo.lookup("s", [2, 1, 3, 2]) == (
            ["two", "one", None, "two"], 1)
        assert memo.lookup("s", [1]) == (["one"], 0)
        assert memo.lookup("s", []) == ([], 0)
        assert memo.lookup("other shape", [1]) == ([None], 1)
        assert memo.stats() == (2, 4, 5, 2)
        assert memo.evictions == 0

    def test_one_shape_over_the_bound_keeps_its_newest_answers(self):
        memo: AnswerMemo[str, int, int] = AnswerMemo(size=3)
        memo.store("s", {key: key for key in range(5)})
        assert memo.lookup("s", range(5))[0] == [None, None, 2, 3, 4]
        memo.store("s", {0: 0, 3: 33})  # 3 is overwritten where it stands
        assert memo.lookup("s", range(5))[0] == [0, None, None, 33, 4]
        assert (memo.stats().entries, memo.evictions) == (3, 3)

    def test_other_shapes_go_first_least_recently_asked_first(self):
        memo: AnswerMemo[str, int, int] = AnswerMemo(size=4)
        memo.store("a", {1: 1, 2: 2})
        memo.store("b", {1: 1})
        memo.lookup("a", [1])  # "b" is now the least recently asked
        memo.store("c", {1: 1, 2: 2})
        assert memo.lookup("b", [1]) == ([None], 1)
        assert memo.lookup("a", [1, 2])[1] == 0
        memo.store("d", {key: key for key in range(6)})
        assert [memo.lookup(shape, [1])[1] for shape in "abc"] == [1, 1, 1]
        assert memo.lookup("d", range(6))[0] == [None, None, 2, 3, 4, 5]
        assert (memo.stats().entries, memo.evictions) == (4, 1 + 4 + 2)

    def test_size_zero_keeps_nothing_and_counts_the_questions(self):
        for size in (0, -1):
            memo: AnswerMemo[str, int, int] = AnswerMemo(size)
            memo.store("s", {1: 1})
            assert memo.lookup("s", [1]) == ([None], 1)
            assert memo.stats() == (0, 0, 1, 0)

    def test_successor_starts_empty_with_the_counters_so_far(self):
        first: AnswerMemo[str, int, int] = AnswerMemo(size=1)
        first.store("s", {1: 1, 2: 2})
        first.lookup("s", [1, 2])
        second = AnswerMemo(1, first)
        assert first.stats() == (1, 1, 1, 0)
        assert second.stats() == (0, 1, 1, 0)
        assert first.evictions == second.evictions == 1
        assert second.lookup("s", [2]) == ([None], 1)
        first.clear()
        assert first.stats() == (0, 1, 1, 0)
