"""Bounded mappings with hit/miss/eviction counters.

Week-long simulations resolve millions of (flow, removal-key, drift)
combinations; the caches that make them fast must not also make them
unbounded.  :class:`LruDict` is the one bounded-mapping primitive the
hot paths share: an ``OrderedDict`` kept in recency order, evicting the
least-recently-used entry once ``capacity`` is exceeded, with counters
cheap enough to read on every export (``repro.obs`` gauges).

``capacity <= 0`` means unbounded — the same mapping, the same
counters, no eviction — so callers can expose a single knob that turns
bounding off for short-lived runs.  :class:`ArrayLru` is its twin for a
batch of ``int64`` keys at a time, holding fixed-width float rows (the
simulator's split memo); :func:`interleaved` and :func:`spliced` merge
two ascending columns by ``np.searchsorted``.  :class:`AnswerMemo` is
the one memo of model answers (each suite a ``TipsyService``
publishes holds one).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import islice
from typing import (Dict, Generic, Hashable, List, NamedTuple, Optional,
                    Sequence, Tuple, TypeVar, ValuesView)

import numpy as np

K = TypeVar("K")
V = TypeVar("V")
S = TypeVar("S", bound=Hashable)


class LruDict(Generic[K, V]):
    """Least-recently-used bounded mapping with usage counters.

    ``get`` and ``put`` refresh recency; once ``len() > capacity`` the
    stalest entry is dropped.  ``hits``/``misses`` count ``get`` calls
    (unless ``count=False``), ``evictions`` counts capacity drops.
    """

    __slots__ = ("capacity", "_data", "hits", "misses", "evictions")

    def __init__(self, capacity: int = 0):
        self.capacity = capacity
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: K, count: bool = True) -> Optional[V]:
        """The value for ``key`` (refreshing its recency), else None."""
        value = self._data.get(key)
        if value is None:
            if count:
                self.misses += 1
            return None
        if count:
            self.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        """Insert/overwrite ``key``, evicting the stalest entry if full."""
        self._data[key] = value
        self._data.move_to_end(key)
        if self.capacity > 0:
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def __setitem__(self, key: K, value: V) -> None:
        self.put(key, value)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def values(self) -> ValuesView[V]:
        """The values, stalest first; reading them refreshes nothing."""
        return self._data.values()

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._data.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of counted ``get`` calls that hit (0.0 when unused)."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


def interleaved(kept: np.ndarray, new: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Where two ascending columns land once merged in order, each
    side's order kept, when no value is on both sides (a value may
    repeat within a side): a mask of the kept places and the new ones'
    places, what a stable argsort of ``kept`` then ``new`` orders them
    to, by ``np.searchsorted`` instead of a sort."""
    new_at = np.searchsorted(kept, new) + np.arange(len(new), dtype=np.int64)
    kept_at = np.ones(len(kept) + len(new), dtype=np.bool_)
    kept_at[new_at] = False
    return kept_at, new_at


def spliced(kept: np.ndarray, new: np.ndarray, kept_at: np.ndarray,
            new_at: np.ndarray) -> np.ndarray:
    """``kept`` and ``new`` merged at the places :func:`interleaved`
    gave (of ``kept``'s dtype)."""
    merged = np.empty(len(kept_at), dtype=kept.dtype)
    merged[kept_at] = kept
    merged[new_at] = new
    return merged


class ArrayLru:
    """Least-recently-used bounded memo of ``int64`` keys to fixed-width
    ``float64`` rows, looked up and stored a batch of keys at a time, as
    arrays.

    Driven as :meth:`get_many` of a batch, then :meth:`put_many` of the
    keys it missed (first-seen order), its counters, contents and
    recency equal an :class:`LruDict`'s driven key by key: ``get`` of
    every key in order, then ``put`` of each missed key.  The live keys
    are one sorted array (a look-up is one ``np.searchsorted``), each
    with a row of ``rows`` and the clock of its latest use; an eviction
    drops the smallest clocks and frees their rows for later puts.
    ``capacity <= 0`` means unbounded.
    """

    def __init__(self, capacity: int, width: int):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._keys = np.zeros(0, dtype=np.int64)   # sorted
        self._slots = np.zeros(0, dtype=np.int64)  # each key's row
        self._rows = np.zeros((0, width), dtype=np.float64)
        self._clock = np.zeros(0, dtype=np.int64)  # per row: latest use
        self._free = np.zeros(0, dtype=np.int64)
        self._used = 0
        self._now = 0

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def hit_rate(self) -> float:
        """Fraction of looked-up keys that hit (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _find(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Which ``keys`` are held, and their rows (-1: not held)."""
        if not len(self._keys):
            return (np.zeros(len(keys), dtype=np.bool_),
                    np.full(len(keys), -1, dtype=np.int64))
        at = np.minimum(np.searchsorted(self._keys, keys),
                        len(self._keys) - 1)
        held = self._keys[at] == keys
        return held, np.where(held, self._slots[at], -1)

    def get_many(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each key's row (zeros if not held) and whether it was held;
        every key counts a hit or a miss, and a held key's use is
        refreshed in the order asked."""
        held, slots = self._find(keys)
        found = np.flatnonzero(held)
        self.hits += len(found)
        self.misses += len(keys) - len(found)
        np.maximum.at(self._clock, slots[found], self._now + found)
        self._now += len(keys)
        rows = np.zeros((len(keys), self._rows.shape[1]),
                        dtype=self._rows.dtype)
        rows[found] = self._rows[slots[found]]
        return rows, held

    def put_many(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """Store distinct keys none of which is held, with their rows,
        in order; the stalest keys go once ``capacity`` is exceeded.
        Raises ``ValueError`` for a key that is held or repeated."""
        ranked = np.sort(keys)
        if (ranked[1:] == ranked[:-1]).any() or self._find(ranked)[0].any():
            raise ValueError("put_many takes distinct keys not held")
        over = (len(self._keys) + len(keys) - self.capacity
                if self.capacity > 0 else 0)
        # a put evicts the stalest held key, then the earliest put ones
        drop = min(max(over, 0), len(self._keys))
        if drop:
            stalest = np.argpartition(self._clock[self._slots],
                                      drop - 1)[:drop]
            self._free = np.concatenate((self._free, self._slots[stalest]))
            kept = np.ones(len(self._keys), dtype=np.bool_)
            kept[stalest] = False
            self._keys, self._slots = self._keys[kept], self._slots[kept]
        self.evictions += max(over, 0)
        slots = self._claimed(len(keys))
        self._rows[slots] = rows
        self._clock[slots] = self._now + np.arange(len(keys), dtype=np.int64)
        self._now += len(keys)
        lost = max(over - drop, 0)
        self._free = np.concatenate((self._free, slots[:lost]))
        keys, slots = keys[lost:], slots[lost:]
        order = np.argsort(keys)
        places = interleaved(self._keys, keys[order])
        self._keys = spliced(self._keys, keys[order], *places)
        self._slots = spliced(self._slots, slots[order], *places)

    def _claimed(self, n: int) -> np.ndarray:
        """``n`` free rows: freed ones first, then new ones (the row
        table grows by doubling)."""
        reused, self._free = self._free[:n], self._free[n:]
        begin = self._used
        self._used += n - len(reused)
        if self._used > len(self._rows):
            size = max(self._used, 2 * len(self._rows))
            rows = np.zeros((size,) + self._rows.shape[1:],
                            dtype=self._rows.dtype)
            rows[:begin] = self._rows[:begin]
            clock = np.zeros(size, dtype=np.int64)
            clock[:begin] = self._clock[:begin]
            self._rows, self._clock = rows, clock
        return np.concatenate((reused, np.arange(begin, self._used,
                                                 dtype=np.int64)))


class MemoStats(NamedTuple):
    """An :class:`AnswerMemo`'s counters: answers held now; since the
    first memo of its ``retired`` chain, keys found and not (per key),
    and lookups that found every key, so that their caller went nowhere
    else for an answer (queries answered wholly from the memo)."""

    entries: int
    hits: int
    misses: int
    hop_free: int


class AnswerMemo(Generic[S, K, V]):
    """Answers valid under one publication: shape -> key -> answer, a shape being whatever else the answer depends on (answering
    model, ``k``, unavailable links), so a batch of one shape is one
    ``map`` over one dictionary and a shape never asked costs one miss.

    At most ``size`` answers (``<= 0``: none): a store that overflows
    evicts whole other shapes, least recently asked first, then sheds
    the stored shape's own oldest answers.  An answer may not be
    ``None``.  The lock is held around dictionary work only.
    """

    def __init__(self, size: int,
                 retired: Optional["AnswerMemo[S, K, V]"] = None):
        self._size = max(size, 0)
        self._lock = threading.Lock()
        self._shapes: "OrderedDict[S, Dict[K, V]]" = OrderedDict()
        # counters are cumulative: they carry over from the retired memo
        self._entries, self._hits, self._misses, self._hop_free = (
            retired.stats()._replace(entries=0) if retired else (0, 0, 0, 0))
        #: answers shed by the bound (cumulative too)
        self.evictions = retired.evictions if retired else 0

    def lookup(self, shape: S, keys: Sequence[K]
               ) -> Tuple[List[Optional[V]], int]:
        """Each key's answer (``None`` if not held); how many are not."""
        with self._lock:
            known = self._shapes.get(shape)
            if known is None:
                found: List[Optional[V]] = [None] * len(keys)
            else:
                self._shapes.move_to_end(shape)
                found = list(map(known.get, keys))
            missing = found.count(None)
            self._hits += len(found) - missing
            self._misses += missing
            self._hop_free += not missing
        return found, missing

    def store(self, shape: S, answers: Dict[K, V]) -> None:
        """Keep ``answers`` (the newest ``size`` of them) under ``shape``."""
        if not self._size:
            return
        with self._lock:
            known = self._shapes.setdefault(shape, {})
            self._shapes.move_to_end(shape)
            self._entries -= len(known)
            known.update(answers)
            self._entries += len(known)
            excess = self._entries - self._size
            while excess > 0 and len(self._shapes) > 1:
                shed = len(self._shapes.popitem(last=False)[1])
                self._entries -= shed
                self.evictions += shed
                excess -= shed
            if excess > 0:
                for key in list(islice(known, excess)):
                    del known[key]
                self._entries -= excess
                self.evictions += excess

    def clear(self) -> None:
        """Drop every answer (counters are kept)."""
        with self._lock:
            self._shapes.clear()
            self._entries = 0

    def stats(self) -> MemoStats:
        with self._lock:
            return MemoStats(self._entries, self._hits, self._misses,
                             self._hop_free)
