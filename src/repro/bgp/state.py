"""Advertisement state: which (prefix, link) pairs are currently usable.

The WAN advertises every destination prefix on every peering link by
default (BGP anycast, paper §2).  Two things remove a (prefix, link) pair
from service:

* a **withdrawal** injected by the congestion mitigation system for a
  specific prefix at a specific link (paper §4.4), and
* a **link outage**, which behaves like withdrawing *all* prefixes on the
  link (paper §5.1.1 uses outages as the evaluation proxy).

The state exposes a compact ``removal_key`` per prefix so the ingress
simulator can cache routing outcomes across hours that share a state.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set, Tuple

from ..topology.wan import CloudWAN

_EMPTY: FrozenSet[int] = frozenset()


class AdvertisementState:
    """Mutable advertisement/outage state over a WAN's peering links."""

    def __init__(self, wan: CloudWAN):
        self.wan = wan
        self._withdrawn: Dict[int, Set[int]] = {}  # prefix_id -> {link_id}
        self._outages: Set[int] = set()
        # prefix_id -> {link_id: prepend count} (ingress TE, §2)
        self._prepends: Dict[int, Dict[int, int]] = {}
        self._version = 0
        self._key_cache: Dict[int, FrozenSet[int]] = {}
        self._key_cache_version = -1

    # -- mutation ----------------------------------------------------------

    def withdraw(self, prefix_id: int, link_id: int) -> None:
        """Withdraw one prefix at one link."""
        self._check_ids(prefix_id, link_id)
        links = self._withdrawn.setdefault(prefix_id, set())
        if link_id not in links:
            links.add(link_id)
            self._version += 1

    def announce(self, prefix_id: int, link_id: int) -> None:
        """Re-announce a previously withdrawn prefix at a link."""
        self._check_ids(prefix_id, link_id)
        links = self._withdrawn.get(prefix_id)
        if links is not None and link_id in links:
            links.discard(link_id)
            if not links:
                del self._withdrawn[prefix_id]
            self._version += 1

    def set_link_down(self, link_id: int) -> None:
        if not self.wan.has_link(link_id):
            raise KeyError(f"unknown link {link_id}")
        if link_id not in self._outages:
            self._outages.add(link_id)
            self._version += 1

    def set_link_up(self, link_id: int) -> None:
        if link_id in self._outages:
            self._outages.discard(link_id)
            self._version += 1

    def prepend(self, prefix_id: int, link_id: int, times: int = 3) -> None:
        """Apply AS-path prepending for a prefix on a link (ingress TE).

        Prepending makes the link's announcement look longer to upstream
        ASes, coarsely discouraging (not forbidding) its use — the §2
        "crude mechanism" that other ASes may simply ignore.
        """
        self._check_ids(prefix_id, link_id)
        if times < 1:
            raise ValueError("prepend count must be >= 1")
        links = self._prepends.setdefault(prefix_id, {})
        if links.get(link_id) != times:
            links[link_id] = times
            self._version += 1

    def clear_prepend(self, prefix_id: int, link_id: int) -> None:
        links = self._prepends.get(prefix_id)
        if links is not None and link_id in links:
            del links[link_id]
            if not links:
                del self._prepends[prefix_id]
            self._version += 1

    def prepend_key(self, prefix_id: int) -> Tuple[Tuple[int, int], ...]:
        """Hashable (link, times) TE state for a prefix (cache key)."""
        links = self._prepends.get(prefix_id)
        if not links:
            return ()
        return tuple(sorted(links.items()))

    def prepends_for(self, prefix_id: int) -> Dict[int, int]:
        return dict(self._prepends.get(prefix_id, {}))

    def clear(self) -> None:
        """Reset to the all-advertised, all-links-up state."""
        if self._withdrawn or self._outages or self._prepends:
            self._withdrawn.clear()
            self._outages.clear()
            self._prepends.clear()
            self._version += 1

    def _check_ids(self, prefix_id: int, link_id: int) -> None:
        if not self.wan.has_link(link_id):
            raise KeyError(f"unknown link {link_id}")
        self.wan.dest_prefix(prefix_id)  # raises KeyError if unknown

    # -- queries -----------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every mutation that changes the
        state; a no-op (downing a down link, ...) leaves it alone, so
        version-keyed caches survive it."""
        return self._version

    @property
    def link_outages(self) -> FrozenSet[int]:
        return frozenset(self._outages)

    def touched_prefixes(self) -> FrozenSet[int]:
        """Prefixes with a withdrawal or a prepend: every other prefix's
        removal key is :attr:`link_outages` and its prepend key empty."""
        return frozenset(self._withdrawn.keys() | self._prepends.keys())

    def withdrawn_links(self, prefix_id: int) -> FrozenSet[int]:
        return frozenset(self._withdrawn.get(prefix_id, _EMPTY))

    def is_available(self, prefix_id: int, link_id: int) -> bool:
        """Whether a prefix is reachable over a link right now."""
        if link_id in self._outages:
            return False
        return link_id not in self._withdrawn.get(prefix_id, _EMPTY)

    def removal_key(self, prefix_id: int) -> FrozenSet[int]:
        """Frozen set of links unusable for this prefix (outages + withdrawals).

        This is the cache key for everything downstream: two hours with the
        same removal key route identically for the prefix.
        """
        if self._key_cache_version != self._version:
            self._key_cache.clear()
            self._key_cache_version = self._version
        key = self._key_cache.get(prefix_id)
        if key is None:
            withdrawn = self._withdrawn.get(prefix_id)
            if withdrawn:
                key = frozenset(self._outages | withdrawn)
            else:
                key = frozenset(self._outages)
            self._key_cache[prefix_id] = key
        return key
