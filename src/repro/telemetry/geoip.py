"""Synthetic Geo-IP database.

The paper relies on a proprietary Microsoft geolocation database to map
source prefixes to large metropolitan areas, noting that geolocation "can
be imprecise" but metro-level precision suffices for TIPSY (§5.3.1).  The
synthetic database maps each source /24 to a metro with a configurable
error rate: a wrong entry points at another metro in the same country when
one exists, otherwise anywhere — mimicking real Geo-IP failure modes.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, Optional

from ..topology.geography import MetroCatalog
from ..traffic.prefixes import PrefixUniverse


class GeoIPDatabase:
    """Prefix-id -> metro lookups with realistic imprecision."""

    def __init__(
        self,
        universe: PrefixUniverse,
        metros: MetroCatalog,
        error_rate: float = 0.03,
        seed: int = 0,
    ):
        if not 0.0 <= error_rate < 1.0:
            raise ValueError("error_rate must be in [0, 1)")
        self.error_rate = error_rate
        rng = random.Random(seed ^ 0x6E01)
        self._table: Dict[int, str] = {}
        all_names = list(metros.names)
        for prefix in universe:
            truth = prefix.metro
            if rng.random() < error_rate:
                country = metros.get(truth).country
                same_country = [m.name for m in metros.in_country(country)
                                if m.name != truth]
                pool = same_country or [n for n in all_names if n != truth]
                self._table[prefix.prefix_id] = rng.choice(pool)
            else:
                self._table[prefix.prefix_id] = truth

    def lookup(self, prefix_id: int) -> Optional[str]:
        """Metro for a prefix, or None if the prefix is unknown."""
        return self._table.get(prefix_id)

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[int]:
        """The prefix ids the database holds a metro for."""
        return iter(self._table)

    def error_count(self, universe: PrefixUniverse) -> int:
        """How many entries disagree with ground truth (for tests)."""
        return sum(
            1 for p in universe if self._table.get(p.prefix_id) != p.metro
        )
