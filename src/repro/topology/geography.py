"""Geographic substrate: metros, coordinates, and distances.

TIPSY's ``AL`` feature set and the ``AL+G`` model both depend on coarse
geo-location at the level of "large metropolitan areas" (paper §3.2) and on
the geographic distance between peering links (paper §3.3.1, "Geographic
distance of peering").  This module provides the metro catalogue used by the
synthetic Internet, plus great-circle distance helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class Metro:
    """A large metropolitan area where ASes have presence and links land.

    Attributes:
        name: Short unique metro code, e.g. ``"sea"``.
        city: Human-readable city name.
        country: ISO-ish country code.
        continent: Continent code (``na``, ``sa``, ``eu``, ``as``, ``af``,
            ``oc``).
        lat: Latitude in degrees.
        lon: Longitude in degrees.
    """

    name: str
    city: str
    country: str
    continent: str
    lat: float
    lon: float

    def distance_km(self, other: "Metro") -> float:
        """Great-circle distance to another metro in kilometres."""
        return haversine_km(self.lat, self.lon, other.lat, other.lon)


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two (lat, lon) points in kilometres."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


# A world metro catalogue, loosely modelled on where large cloud WANs have
# edge presence.  Coordinates are approximate city centres.
WORLD_METROS: Tuple[Metro, ...] = (
    # North America
    Metro("sea", "Seattle", "us", "na", 47.61, -122.33),
    Metro("pao", "Palo Alto", "us", "na", 37.44, -122.14),
    Metro("lax", "Los Angeles", "us", "na", 34.05, -118.24),
    Metro("phx", "Phoenix", "us", "na", 33.45, -112.07),
    Metro("dfw", "Dallas", "us", "na", 32.78, -96.80),
    Metro("chi", "Chicago", "us", "na", 41.88, -87.63),
    Metro("atl", "Atlanta", "us", "na", 33.75, -84.39),
    Metro("mia", "Miami", "us", "na", 25.76, -80.19),
    Metro("iad", "Ashburn", "us", "na", 39.04, -77.49),
    Metro("nyc", "New York", "us", "na", 40.71, -74.01),
    Metro("bos", "Boston", "us", "na", 42.36, -71.06),
    Metro("tor", "Toronto", "ca", "na", 43.65, -79.38),
    Metro("yvr", "Vancouver", "ca", "na", 49.28, -123.12),
    Metro("mex", "Mexico City", "mx", "na", 19.43, -99.13),
    # South America
    Metro("gru", "Sao Paulo", "br", "sa", -23.55, -46.63),
    Metro("eze", "Buenos Aires", "ar", "sa", -34.60, -58.38),
    Metro("bog", "Bogota", "co", "sa", 4.71, -74.07),
    Metro("scl", "Santiago", "cl", "sa", -33.45, -70.67),
    # Europe
    Metro("lon", "London", "gb", "eu", 51.51, -0.13),
    Metro("ams", "Amsterdam", "nl", "eu", 52.37, 4.90),
    Metro("fra", "Frankfurt", "de", "eu", 50.11, 8.68),
    Metro("par", "Paris", "fr", "eu", 48.86, 2.35),
    Metro("mad", "Madrid", "es", "eu", 40.42, -3.70),
    Metro("mil", "Milan", "it", "eu", 45.46, 9.19),
    Metro("sto", "Stockholm", "se", "eu", 59.33, 18.07),
    Metro("waw", "Warsaw", "pl", "eu", 52.23, 21.01),
    Metro("vie", "Vienna", "at", "eu", 48.21, 16.37),
    Metro("dub", "Dublin", "ie", "eu", 53.35, -6.26),
    # Middle East / Africa
    Metro("dxb", "Dubai", "ae", "as", 25.20, 55.27),
    Metro("tlv", "Tel Aviv", "il", "as", 32.07, 34.78),
    Metro("jnb", "Johannesburg", "za", "af", -26.20, 28.05),
    Metro("cai", "Cairo", "eg", "af", 30.04, 31.24),
    Metro("nbo", "Nairobi", "ke", "af", -1.29, 36.82),
    # Asia-Pacific
    Metro("bom", "Mumbai", "in", "as", 19.08, 72.88),
    Metro("maa", "Chennai", "in", "as", 13.08, 80.27),
    Metro("sin", "Singapore", "sg", "as", 1.35, 103.82),
    Metro("hkg", "Hong Kong", "hk", "as", 22.32, 114.17),
    Metro("tpe", "Taipei", "tw", "as", 25.03, 121.57),
    Metro("tyo", "Tokyo", "jp", "as", 35.68, 139.69),
    Metro("osa", "Osaka", "jp", "as", 34.69, 135.50),
    Metro("icn", "Seoul", "kr", "as", 37.57, 126.98),
    Metro("syd", "Sydney", "au", "oc", -33.87, 151.21),
    Metro("mel", "Melbourne", "au", "oc", -37.81, 144.96),
    Metro("akl", "Auckland", "nz", "oc", -36.85, 174.76),
)


class MetroCatalog:
    """Indexed access to a set of metros, with distance utilities.

    The catalogue is the shared geographic frame for the AS topology (AS
    footprints), the cloud WAN (peering link locations) and the Geo-IP
    database (prefix locations).
    """

    def __init__(self, metros: Sequence[Metro] = WORLD_METROS):
        if not metros:
            raise ValueError("metro catalogue must not be empty")
        self._metros: Tuple[Metro, ...] = tuple(metros)
        self._by_name: Dict[str, Metro] = {m.name: m for m in self._metros}
        if len(self._by_name) != len(self._metros):
            raise ValueError("duplicate metro names in catalogue")
        self._distance_cache: Dict[Tuple[str, str], float] = {}

    def __len__(self) -> int:
        return len(self._metros)

    def __iter__(self) -> Iterator[Metro]:
        return iter(self._metros)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self._metros)

    def get(self, name: str) -> Metro:
        """Look up a metro by its short code. Raises ``KeyError`` if absent."""
        return self._by_name[name]

    def distance_km(self, a: str, b: str) -> float:
        """Distance between two metros by name, cached and symmetric."""
        if a == b:
            return 0.0
        key = (a, b) if a < b else (b, a)
        dist = self._distance_cache.get(key)
        if dist is None:
            ma, mb = self._by_name[key[0]], self._by_name[key[1]]
            dist = ma.distance_km(mb)
            self._distance_cache[key] = dist
        return dist

    def nearest(self, origin: str, candidates: Iterable[str]) -> str:
        """The candidate metro nearest to ``origin`` (ties break by name)."""
        best: Tuple[float, str] = (float("inf"), "")
        for name in candidates:
            d = self.distance_km(origin, name)
            if (d, name) < best:
                best = (d, name)
        if best[1] == "":
            raise ValueError("nearest() requires at least one candidate")
        return best[1]

    def in_continent(self, continent: str) -> List[Metro]:
        """All metros on a given continent code."""
        return [m for m in self._metros if m.continent == continent]

    def in_country(self, country: str) -> List[Metro]:
        """All metros in a given country code."""
        return [m for m in self._metros if m.country == country]
