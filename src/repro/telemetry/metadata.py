"""Network metadata joins (paper §4.1, item 3).

The Azure pipeline augments IPFIX with: which cloud service and metro
region a destination belongs to, where the external source prefix
originates (Geo-IP), and which peer/geography a collecting link belongs
to.  ``MetadataStore`` bundles the destination and source lookups so the
aggregation stage can do a single join; a link's peer and metro are read
straight off :meth:`~repro.topology.wan.CloudWAN.link`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from ..topology.wan import CloudWAN
from .geoip import GeoIPDatabase


class MetadataStore:
    """Joins IPFIX identifiers to the features TIPSY trains on."""

    def __init__(self, wan: CloudWAN, geoip: GeoIPDatabase):
        self.wan = wan
        self.geoip = geoip

    def destination_features(self, dest_prefix_id: int) -> Tuple[str, str]:
        """(region, service type) for a destination prefix."""
        dest = self.wan.dest_prefix(dest_prefix_id)
        return dest.region, dest.service

    def source_location(self, src_prefix_id: int) -> Optional[str]:
        """Geo-IP metro of the source /24 (may be imprecise or missing)."""
        return self.geoip.lookup(src_prefix_id)

    def id_ranges(self) -> Tuple[range, range]:
        """The destination and source prefix ids the store may know.

        No id outside its range has destination features or a source
        location, so a join indexed by id needs no more room than this.
        """
        return (_span(p.prefix_id for p in self.wan.dest_prefixes),
                _span(self.geoip))


def _span(ids: Iterable[int]) -> range:
    """The smallest range holding every id (empty for none)."""
    ids = list(ids)
    return range(min(ids), max(ids) + 1) if ids else range(0)
