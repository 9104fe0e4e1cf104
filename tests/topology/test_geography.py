"""Tests for metros and great-circle distances."""

import math

import pytest

from repro.topology import Metro, MetroCatalog, WORLD_METROS, haversine_km


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(47.61, -122.33, 47.61, -122.33) == 0.0

    def test_symmetric(self):
        d1 = haversine_km(47.61, -122.33, 51.51, -0.13)
        d2 = haversine_km(51.51, -0.13, 47.61, -122.33)
        assert d1 == pytest.approx(d2)

    def test_known_distance_london_paris(self):
        # London <-> Paris is ~344 km
        d = haversine_km(51.51, -0.13, 48.86, 2.35)
        assert 320 < d < 370

    def test_antipodal_upper_bound(self):
        # no two points are further apart than half the circumference
        d = haversine_km(0.0, 0.0, 0.0, 180.0)
        assert d == pytest.approx(math.pi * 6371.0, rel=1e-6)


class TestMetro:
    def test_distance_km_matches_haversine(self):
        sea = Metro("sea", "Seattle", "us", "na", 47.61, -122.33)
        lon = Metro("lon", "London", "gb", "eu", 51.51, -0.13)
        assert sea.distance_km(lon) == pytest.approx(
            haversine_km(47.61, -122.33, 51.51, -0.13))

    def test_frozen(self):
        metro = WORLD_METROS[0]
        with pytest.raises(AttributeError):
            metro.lat = 0.0


class TestMetroCatalog:
    def test_default_catalog_size(self):
        catalog = MetroCatalog()
        assert len(catalog) == len(WORLD_METROS) >= 40

    def test_get_and_contains(self):
        catalog = MetroCatalog()
        assert "sea" in catalog
        assert catalog.get("sea").city == "Seattle"
        assert "nowhere" not in catalog

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            MetroCatalog().get("nowhere")

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            MetroCatalog(())

    def test_duplicate_names_rejected(self):
        metro = WORLD_METROS[0]
        with pytest.raises(ValueError):
            MetroCatalog((metro, metro))

    def test_distance_symmetric_and_cached(self):
        catalog = MetroCatalog()
        assert catalog.distance_km("sea", "lon") == pytest.approx(
            catalog.distance_km("lon", "sea"))
        assert catalog.distance_km("sea", "sea") == 0.0

    def test_nearest_prefers_closest(self):
        catalog = MetroCatalog()
        # from Seattle: Vancouver is nearer than London
        assert catalog.nearest("sea", ["lon", "yvr"]) == "yvr"

    def test_nearest_requires_candidates(self):
        with pytest.raises(ValueError):
            MetroCatalog().nearest("sea", [])

    def test_nearest_tie_breaks_by_name(self):
        catalog = MetroCatalog()
        assert catalog.nearest("sea", ["sea"]) == "sea"

    def test_in_continent(self):
        catalog = MetroCatalog()
        europe = catalog.in_continent("eu")
        assert all(m.continent == "eu" for m in europe)
        assert {"lon", "ams", "fra"} <= {m.name for m in europe}

    def test_in_country(self):
        catalog = MetroCatalog()
        japan = catalog.in_country("jp")
        assert {m.name for m in japan} == {"tyo", "osa"}

    def test_names_unique(self):
        catalog = MetroCatalog()
        assert len(set(catalog.names)) == len(catalog.names)
