"""Tests for ordinal encoding."""

import pytest

from repro.pipeline import OrdinalEncoder


class TestOrdinalEncoder:
    def test_first_seen_order(self):
        enc = OrdinalEncoder()
        assert enc.encode("sea") == 0
        assert enc.encode("lon") == 1
        assert enc.encode("sea") == 0

    def test_decode_roundtrip(self):
        enc = OrdinalEncoder()
        for value in ("a", "b", "c"):
            assert enc.decode(enc.encode(value)) == value

    def test_decode_unknown_raises(self):
        enc = OrdinalEncoder()
        with pytest.raises(IndexError):
            enc.decode(0)
        enc.encode("x")
        with pytest.raises(IndexError):
            enc.decode(5)
        with pytest.raises(IndexError):
            enc.decode(-1)

    def test_len_and_contains(self):
        enc = OrdinalEncoder()
        enc.encode("a")
        enc.encode("b")
        assert len(enc) == 2
        assert "a" in enc
        assert "z" not in enc

    def test_values(self):
        enc = OrdinalEncoder()
        enc.encode("a")
        enc.encode("b")
        assert enc.values() == ("a", "b")
