"""Snapshot/restore through the real service: bit-identical resumption.

The restart guarantee under test (docs/storage.md): restore a
mid-window snapshot into a fresh process and the service is
*indistinguishable* from one that never stopped — same predictions,
same what-if answers, and, after further ingest across retrains and
window evictions, still the same.  Damage downgrades, never corrupts:
a lost day shrinks the window and says so in the restore report, and
the models are rebuilt from the days that survive.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.service import (
    ServiceConfig,
    SnapshotError,
    TipsyService,
)
from repro.experiments.scenario import Scenario, ScenarioParams
from repro.store import SegmentStore

WINDOW_DAYS = 5
SNAP_DAYS = 7
TOTAL_DAYS = 10


#: the service config as every snapshot manifest holds it: the settable
#: fields beside the two role keys, which name the fixed models
STORED_CONFIG = {"memo_size": 65536, "prediction_k": 3,
                 "primary_model": "Hist_AP/AL/A",
                 "training_window_days": WINDOW_DAYS,
                 "withdrawal_model": "Hist_AL+G"}


@pytest.fixture(scope="module")
def world():
    scenario = Scenario(ScenarioParams.small(seed=23,
                                             horizon_days=TOTAL_DAYS))
    hours = [(columns.hour, columns)
             for columns in scenario.aggregated_hours(0, TOTAL_DAYS * 24)]
    return scenario, hours


def _service_fed_to(world, n_hours):
    scenario, hours = world
    service = TipsyService(
        scenario.wan, ServiceConfig(training_window_days=WINDOW_DAYS))
    for hour, records in hours[:n_hours]:
        service.ingest_hour(hour, records)
    return service


@pytest.fixture()
def snapshot_dir(world, tmp_path):
    service = _service_fed_to(world, SNAP_DAYS * 24)
    service.snapshot(tmp_path / "snap")
    return tmp_path / "snap"


def _predictions(service, scenario):
    contexts = scenario.flow_contexts
    top = service.predict(contexts[0], k=1)
    withdrawn = frozenset({top[0].link_id}) if top else frozenset()
    return (service.predict_batch(contexts),
            service.what_if([(c, 1000.0) for c in contexts[:64]],
                            withdrawn))


class TestBitIdenticalRestore:
    def test_restore_matches_uninterrupted_service(self, world,
                                                   snapshot_dir):
        scenario, _hours = world
        reference = _service_fed_to(world, SNAP_DAYS * 24)
        restored = TipsyService.restore(snapshot_dir, scenario.wan)
        assert restored.restore_report is not None
        assert restored.restore_report.clean
        assert _predictions(restored, scenario) == \
            _predictions(reference, scenario)

    def test_internal_state_round_trips(self, world, snapshot_dir):
        scenario, _hours = world
        reference = _service_fed_to(world, SNAP_DAYS * 24)
        restored = TipsyService.restore(snapshot_dir, scenario.wan)
        assert restored.trained_days == reference.trained_days
        assert restored.retrain_count == reference.retrain_count
        assert sorted(restored.window._days) == sorted(reference.window._days)
        for day, counts in reference.window._days.items():
            # the bit-identical guarantee needs the same rows in the
            # same order with the same dtypes: compare the stored form
            restored_arrays = restored.window._days[day].to_arrays()
            assert list(restored_arrays) == list(counts.to_arrays())
            for name, column in counts.to_arrays().items():
                assert restored_arrays[name].dtype == column.dtype
                assert restored_arrays[name].tobytes() == column.tobytes()

    def test_continued_ingest_stays_identical(self, world, snapshot_dir):
        """The restored window keeps rolling exactly: further days bring
        retrains and evictions, and every prediction still matches."""
        scenario, hours = world
        reference = _service_fed_to(world, SNAP_DAYS * 24)
        restored = TipsyService.restore(snapshot_dir, scenario.wan)
        for hour, records in hours[SNAP_DAYS * 24:]:
            reference.ingest_hour(hour, records)
            restored.ingest_hour(hour, records)
        assert restored.retrain_count == reference.retrain_count
        assert restored.trained_days == reference.trained_days
        assert _predictions(restored, scenario) == \
            _predictions(reference, scenario)

    def test_snapshot_then_restore_then_snapshot_is_stable(
            self, world, snapshot_dir, tmp_path):
        scenario, _hours = world
        restored = TipsyService.restore(snapshot_dir, scenario.wan)
        again = restored.snapshot(tmp_path / "snap2")
        first = SegmentStore(snapshot_dir)
        for info in first.segments():
            assert again.info(info.name) is not None
            assert again.info(info.name).sha256 == info.sha256


    def test_daily_snapshots_into_one_directory_keep_only_the_window(
            self, world, tmp_path):
        """A checkpoint directory is written to daily and must not grow
        for ever: each snapshot removes the days that left the window."""
        scenario, hours = world
        service = _service_fed_to(world, 0)
        for day in range(WINDOW_DAYS + 3):
            for hour, records in hours[day * 24:(day + 1) * 24]:
                service.ingest_hour(hour, records)
            store = service.snapshot(tmp_path)
            assert sorted(tmp_path.glob("day-*.npz")) == [
                tmp_path / f"day-{kept:06d}.npz" for kept in service.window._days]
            assert [info.name for info in store.segments()] == [
                f"day-{kept:06d}" for kept in service.window._days]
        assert len(service.window._days) == WINDOW_DAYS + 1 < day + 1
        restored = TipsyService.restore(tmp_path, scenario.wan)
        assert restored.restore_report.clean
        assert restored.restore_report.days_restored == tuple(service.window._days)
        assert _predictions(restored, scenario) == \
            _predictions(service, scenario)

    def test_orphaned_day_file_is_no_part_of_the_snapshot(
            self, world, snapshot_dir):
        """A crash between ``remove``'s manifest commit and its unlink
        leaves a file no manifest vouches for."""
        scenario, _hours = world
        orphan = snapshot_dir / "day-000000.npz"
        orphan.write_bytes((snapshot_dir / "day-000003.npz").read_bytes())
        restored = TipsyService.restore(snapshot_dir, scenario.wan)
        assert restored.restore_report.clean
        assert 0 not in restored.window._days
        assert _predictions(restored, scenario) == _predictions(
            _service_fed_to(world, SNAP_DAYS * 24), scenario)

    def test_resnapshot_into_a_used_directory_restores_only_the_window(
            self, world, snapshot_dir, monkeypatch):
        """A store written to daily by an older writer, which did not
        prune, keeps the segments of days that have since left the
        window.  They are not part of the later snapshot: not trained
        on, not reported."""
        monkeypatch.setattr(SegmentStore, "remove", lambda self, name: None)
        scenario, hours = world
        reference = _service_fed_to(world, SNAP_DAYS * 24)
        for hour, records in hours[SNAP_DAYS * 24:(SNAP_DAYS + 2) * 24]:
            reference.ingest_hour(hour, records)
        reference.snapshot(snapshot_dir)      # days 1, 2 are now stale
        stale = snapshot_dir / "day-000002.npz"
        assert stale.exists() and 2 not in reference.window._days
        stale.write_bytes(stale.read_bytes()[:100])     # and one is torn
        restored = TipsyService.restore(snapshot_dir, scenario.wan)
        assert restored.restore_report.clean
        assert sorted(restored.window._days) == sorted(reference.window._days)
        assert restored.restore_report.days_restored == tuple(
            sorted(reference.window._days))
        assert restored.trained_days == reference.trained_days
        assert _predictions(restored, scenario) == \
            _predictions(reference, scenario)


class TestDegradedRestore:
    def test_lost_day_is_reported_and_window_shrinks(self, world,
                                                     snapshot_dir):
        scenario, hours = world
        lost_day = min(TipsyService.restore(snapshot_dir,
                                            scenario.wan).trained_days)
        (snapshot_dir / f"day-{lost_day:06d}.npz").unlink()
        restored = TipsyService.restore(snapshot_dir, scenario.wan)
        report = restored.restore_report
        assert report.days_lost == (lost_day,)
        assert lost_day not in restored.trained_days
        assert not report.clean
        # what is served is exactly what the surviving days train
        survivors = TipsyService(
            scenario.wan, ServiceConfig(training_window_days=WINDOW_DAYS))
        for hour, records in hours[:SNAP_DAYS * 24]:
            if hour // 24 != lost_day:
                survivors.ingest_hour(hour, records)
        assert restored.trained_days == survivors.trained_days
        assert _predictions(restored, scenario) == \
            _predictions(survivors, scenario)

    def test_lost_current_day_restarts_empty_and_keeps_ingesting(
            self, world, tmp_path):
        """The day being ingested at the snapshot is lost: its remaining
        hours must still land (the parent raised ``KeyError(day)`` on
        the next one), and the report names the day."""
        scenario, hours = world
        cut = 2 * 24 + 6                      # six hours into day 2
        _service_fed_to(world, cut).snapshot(tmp_path / "snap")
        path = tmp_path / "snap" / "day-000002.npz"
        path.write_bytes(path.read_bytes()[:100])
        restored = TipsyService.restore(tmp_path / "snap", scenario.wan)
        assert restored.restore_report.days_lost == (2,)
        assert restored.trained_days == (0, 1)
        # the rest of day 2 and all of day 3 arrive as usual
        survivors = _service_fed_to(world, 2 * 24)
        for hour, records in hours[cut:4 * 24]:
            restored.ingest_hour(hour, records)
            survivors.ingest_hour(hour, records)
        assert restored.trained_days == (0, 1, 2)
        assert _predictions(restored, scenario) == \
            _predictions(survivors, scenario)

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda a: a.pop("k3"), id="missing-key-column"),
        pytest.param(lambda a: a.update(k5=a["k5"][:-1]),
                     id="misaligned-lengths"),
        pytest.param(lambda a: a.update(
            {name: column.reshape(-1, 1) for name, column in a.items()}),
            id="not-one-dimensional"),
        pytest.param(lambda a: a.update(k1=a["k1"].astype(np.float64)),
                     id="float-key-column"),
        pytest.param(lambda a: a["value"].__setitem__(0, np.inf),
                     id="non-finite-value"),
        pytest.param(lambda a: a["value"].__setitem__(-1, 0.0),
                     id="non-positive-value"),
    ])
    def test_malformed_day_segment_is_a_lost_day(self, world, snapshot_dir,
                                                 damage):
        """A day segment that passes its checksum but is not a counts
        table costs that day — never a crash, never counts restored
        wrong."""
        scenario, _hours = world
        store = SegmentStore(snapshot_dir)
        day = SNAP_DAYS - 2
        arrays = store.read(f"day-{day:06d}")
        damage(arrays)
        store.write(f"day-{day:06d}", arrays, kind="day_counts",
                    rows=len(arrays["value"]), meta={"day": str(day)})
        restored = TipsyService.restore(snapshot_dir, scenario.wan)
        report = restored.restore_report
        assert report.days_lost == (day,)
        assert day not in restored.trained_days
        assert day not in restored.window._days

    def test_empty_directory_raises_snapshot_error(self, world,
                                                   tmp_path):
        scenario, _hours = world
        with pytest.raises(SnapshotError):
            TipsyService.restore(tmp_path / "nothing", scenario.wan)


class TestStoredConfig:
    def test_role_keys_restore_bit_identically(self, world, snapshot_dir):
        scenario, _hours = world
        assert SegmentStore(snapshot_dir).meta["config"] == json.dumps(
            STORED_CONFIG, sort_keys=True)
        restored = TipsyService.restore(snapshot_dir, scenario.wan)
        assert restored.config == ServiceConfig(
            training_window_days=WINDOW_DAYS)
        assert _predictions(restored, scenario) == \
            _predictions(_service_fed_to(world, SNAP_DAYS * 24), scenario)

    @pytest.mark.parametrize("change, match", [
        ({"withdrawal_model": "Hist_AP"}, "'Hist_AP' is not served"),
        ({"bogus": 1}, "bogus"),
        ({"training_window_days": 0}, "at least 1"),
        ({"prediction_k": -1}, "at least 1"),
    ])
    def test_unfit_config_is_a_snapshot_error(self, world, snapshot_dir,
                                              change, match):
        scenario, _hours = world
        SegmentStore(snapshot_dir).set_meta(
            {"config": json.dumps({**STORED_CONFIG, **change})})
        with pytest.raises(SnapshotError, match=match):
            TipsyService.restore(snapshot_dir, scenario.wan)
