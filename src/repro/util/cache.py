"""Bounded mappings with hit/miss/eviction counters.

Week-long simulations resolve millions of (flow, removal-key, drift)
combinations; the caches that make them fast must not also make them
unbounded.  :class:`LruDict` is the one bounded-mapping primitive the
hot paths share: an ``OrderedDict`` kept in recency order, evicting the
least-recently-used entry once ``capacity`` is exceeded, with counters
cheap enough to read on every export (``repro.obs`` gauges).

``capacity <= 0`` means unbounded — the same mapping, the same
counters, no eviction — so callers can expose a single knob that turns
bounding off for short-lived runs.  :class:`AnswerMemo` is the one memo
of model answers (``TipsyService`` and ``ServeDaemon`` each hold one).
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from itertools import compress, islice, repeat
from operator import is_not
from typing import (Dict, Generic, Hashable, List, NamedTuple, Optional,
                    Sequence, Tuple, TypeVar, ValuesView)

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

    def get_many(self, keys: Sequence[K]) -> List[Optional[V]]:
        """:meth:`get` of every key, in one pass rather than a call each."""
        data = self._data
        found = list(map(data.get, keys))
        missed = found.count(None)
        self.misses += missed
        self.hits += len(found) - missed
        held = map(is_not, found, repeat(None))
        deque(map(data.move_to_end, compress(keys, held)), maxlen=0)
        return found

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


class MemoStats(NamedTuple):
    """An :class:`AnswerMemo`'s counters: answers held now; since the
    first memo of its ``retired`` chain, keys found and not (per key),
    and lookups that found every key, so that their caller went nowhere
    else for an answer (the daemon's queries without a hop)."""

    entries: int
    hits: int
    misses: int
    hop_free: int


class AnswerMemo(Generic[S, K, V]):
    """Answers valid under one publication, ``day``: shape -> key ->
    answer, a shape being whatever else the answer depends on (answering
    model, ``k``, unavailable links), so a batch of one shape is one
    ``map`` over one dictionary and a shape never asked costs one miss.

    At most ``size`` answers (``<= 0``: none): a store that overflows
    evicts whole other shapes, least recently asked first, then sheds
    the stored shape's own oldest answers.  An answer may not be
    ``None``.  The lock is held around dictionary work only.
    """

    def __init__(self, size: int, day: Optional[int] = None,
                 retired: Optional["AnswerMemo[S, K, V]"] = None):
        self.day = day
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
