"""SegmentStore contracts: atomic writes, verified reads, degradation.

The load-bearing promise (docs/storage.md): a write either fully lands
or never happened, and *every* flavour of on-disk damage — missing
file, truncation, bit flips, version skew, a mangled manifest — turns
into ``read() -> None`` plus a ``degraded`` entry, never an exception.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import runtime as obs
from repro.store import (
    MANIFEST_NAME,
    STORE_FORMAT,
    SegmentInfo,
    SegmentStore,
)


def _arrays(n=8, offset=0):
    return {
        "k0": np.arange(n, dtype=np.int64) + offset,
        "value": np.arange(n, dtype=np.float64) * 1.5,
    }


@pytest.fixture()
def store(tmp_path):
    return SegmentStore(tmp_path, create=True)


class TestRoundTrip:
    def test_write_read_round_trip(self, store):
        arrays = _arrays()
        info = store.write("seg-a", arrays, kind="day_counts", rows=8)
        assert info.rows == 8
        assert info.format == STORE_FORMAT
        got = store.read("seg-a")
        assert got is not None
        assert sorted(got) == ["k0", "value"]
        np.testing.assert_array_equal(got["k0"], arrays["k0"])
        np.testing.assert_array_equal(got["value"], arrays["value"])
        assert store.degraded == []

    def test_reopen_sees_same_segments(self, store, tmp_path):
        store.write("seg-a", _arrays(), kind="day_counts", rows=8)
        store.set_meta({"answer": "42"})
        reopened = SegmentStore(tmp_path)
        assert reopened.meta["answer"] == "42"
        assert [i.name for i in reopened.segments()] == ["seg-a"]
        assert reopened.read("seg-a") is not None

    def test_overwrite_replaces(self, store):
        store.write("seg-a", _arrays(offset=0), kind="day_counts", rows=8)
        store.write("seg-a", _arrays(offset=100), kind="day_counts", rows=8)
        got = store.read("seg-a")
        assert got["k0"][0] == 100
        assert len(store.segments()) == 1

    def test_write_order_is_manifest_order(self, store):
        for name in ("zz", "aa", "mm"):
            store.write(name, _arrays(), kind="day_counts", rows=8)
        assert [i.name for i in store.segments()] == ["zz", "aa", "mm"]

    def test_invalid_segment_name_rejected(self, store):
        with pytest.raises(ValueError):
            store.write("../escape", _arrays(), kind="x", rows=1)

    def test_total_bytes_matches_manifest(self, store):
        store.write("a", _arrays(), kind="x", rows=8)
        store.write("b", _arrays(16), kind="x", rows=16)
        assert store.total_bytes() == sum(
            i.nbytes for i in store.segments())

    def test_no_temp_files_left_behind(self, store, tmp_path):
        store.write("seg-a", _arrays(), kind="day_counts", rows=8)
        leftovers = [p.name for p in tmp_path.iterdir()
                     if ".tmp." in p.name]
        assert leftovers == []


class TestRemove:
    def test_remove_forgets_entry_and_file(self, store, tmp_path):
        store.write("seg-a", _arrays(), kind="day_counts", rows=8)
        store.write("seg-b", _arrays(4), kind="day_counts", rows=4)
        store.remove("seg-a")
        store.remove("never-written")  # nothing to forget: a no-op
        for view in (store, SegmentStore(tmp_path)):
            assert [i.name for i in view.segments()] == ["seg-b"]
            assert view.read("seg-a") is None
            assert view.total_bytes() == view.info("seg-b").nbytes
            assert view.degraded == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            MANIFEST_NAME, "seg-b.npz"]

    def test_orphan_of_a_crashed_remove_is_invisible_then_overwritten(
            self, store, tmp_path, monkeypatch):
        store.write("seg-a", _arrays(), kind="day_counts", rows=8)
        store.write("seg-b", _arrays(4), kind="day_counts", rows=4)
        with monkeypatch.context() as patch:  # crash before the unlink
            patch.setattr("pathlib.Path.unlink", lambda *a, **k: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                store.remove("seg-a")
        assert (tmp_path / "seg-a.npz").exists()
        reopened = SegmentStore(tmp_path)
        assert reopened.read("seg-a") is None and reopened.degraded == []
        assert [i.name for i, _ in reopened.inspect()] == ["seg-b"]
        assert reopened.total_bytes() == reopened.info("seg-b").nbytes
        reopened.write("seg-a", _arrays(offset=5), kind="day_counts", rows=8)
        np.testing.assert_array_equal(
            SegmentStore(tmp_path).read("seg-a")["k0"],
            _arrays(offset=5)["k0"])


class TestDegradation:
    def test_never_written_is_none(self, store):
        assert store.read("ghost") is None
        assert store.degraded == []  # absence is not damage

    def test_missing_file(self, store, tmp_path):
        info = store.write("seg-a", _arrays(), kind="day_counts", rows=8)
        (tmp_path / info.filename).unlink()
        fresh = SegmentStore(tmp_path)
        assert fresh.read("seg-a") is None
        assert ("seg-a", "segment file missing") in fresh.degraded

    def test_truncated_segment(self, store, tmp_path):
        info = store.write("seg-a", _arrays(), kind="day_counts", rows=8)
        path = tmp_path / info.filename
        path.write_bytes(path.read_bytes()[:-16])
        fresh = SegmentStore(tmp_path)
        assert fresh.read("seg-a") is None
        assert ("seg-a", "checksum mismatch") in fresh.degraded

    def test_bit_flip(self, store, tmp_path):
        info = store.write("seg-a", _arrays(), kind="day_counts", rows=8)
        path = tmp_path / info.filename
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        fresh = SegmentStore(tmp_path)
        assert fresh.read("seg-a") is None
        assert ("seg-a", "checksum mismatch") in fresh.degraded

    def test_segment_version_skew(self, store, tmp_path):
        store.write("seg-a", _arrays(), kind="day_counts", rows=8)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["segments"][0]["format"] = STORE_FORMAT + 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        fresh = SegmentStore(tmp_path)
        assert fresh.read("seg-a") is None
        assert any(name == "seg-a" and "format" in reason
                   for name, reason in fresh.degraded)

    def test_manifest_version_skew_empties_store(self, store, tmp_path):
        store.write("seg-a", _arrays(), kind="day_counts", rows=8)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["format"] = STORE_FORMAT + 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        fresh = SegmentStore(tmp_path)
        assert fresh.segments() == ()
        assert any(name == "<manifest>" for name, _ in fresh.degraded)

    def test_corrupt_manifest_json(self, store, tmp_path):
        store.write("seg-a", _arrays(), kind="day_counts", rows=8)
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        fresh = SegmentStore(tmp_path)
        assert fresh.segments() == ()
        assert ("<manifest>", "manifest unreadable") in fresh.degraded

    def test_absent_manifest_is_empty_not_degraded(self, tmp_path):
        fresh = SegmentStore(tmp_path / "nowhere")
        assert fresh.segments() == ()
        assert fresh.degraded == []

    def test_degraded_read_never_raises_and_is_sticky(self, store,
                                                      tmp_path):
        info = store.write("seg-a", _arrays(), kind="day_counts", rows=8)
        (tmp_path / info.filename).write_bytes(b"garbage")
        fresh = SegmentStore(tmp_path)
        assert fresh.read("seg-a") is None
        assert fresh.read("seg-a") is None  # cached verdict, no re-hash
        assert len([d for d in fresh.degraded if d[0] == "seg-a"]) == 1

    def test_inspect_reports_status_per_segment(self, store, tmp_path):
        store.write("good", _arrays(), kind="x", rows=8)
        info = store.write("bad", _arrays(), kind="x", rows=8)
        (tmp_path / info.filename).unlink()
        fresh = SegmentStore(tmp_path)
        status = dict((i.name, s) for i, s in fresh.inspect())
        assert status["good"] == "ok"
        assert status["bad"] == "segment file missing"


class TestObservability:
    def test_write_and_read_counters(self, tmp_path):
        obs.enable(fresh=True)
        store = SegmentStore(tmp_path, create=True)
        info = store.write("seg-a", _arrays(), kind="day_counts", rows=8)
        store.read("seg-a")
        snap = obs.snapshot()
        assert snap.counters["store.write.segments"] == 1
        assert snap.counters["store.write.bytes"] == info.nbytes
        assert snap.counters["store.read.segments"] == 1
        assert snap.counters["store.read.bytes"] == info.nbytes

    def test_degraded_counter(self, tmp_path):
        store = SegmentStore(tmp_path, create=True)
        info = store.write("seg-a", _arrays(), kind="day_counts", rows=8)
        (tmp_path / info.filename).unlink()
        obs.enable(fresh=True)
        fresh = SegmentStore(tmp_path)
        assert fresh.read("seg-a") is None
        assert obs.snapshot().counters["store.read.degraded"] == 1

    def test_silent_when_disabled(self, tmp_path):
        store = SegmentStore(tmp_path, create=True)
        store.write("seg-a", _arrays(), kind="day_counts", rows=8)
        store.read("seg-a")
        assert obs.snapshot().empty


class TestSegmentInfo:
    def test_json_round_trip(self):
        info = SegmentInfo(name="a", filename="a.npz", kind="day_counts",
                           rows=3, nbytes=100, sha256="ff" * 32,
                           meta={"day": "7"})
        assert SegmentInfo.from_json(info.to_json()) == info
