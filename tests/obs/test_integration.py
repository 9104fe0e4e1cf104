"""Instrumentation wired through the real system.

The contracts under test: the service and pipeline report what they
actually did; the feed yields the same records instrumented or not; and
the `repro obs` CLI exports in every format.  (Merging worker deltas
across processes is checked in tests/serve/test_lifecycle.py and
tests/obs/test_metrics.py.)
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.core.service import ServiceConfig, TipsyService
from repro.obs import runtime as obs


def obs_main(argv):
    return main(["obs", *argv])


@pytest.fixture()
def ingested_service(small_scenario):
    obs.enable(fresh=True)
    service = TipsyService(small_scenario.wan,
                           ServiceConfig(training_window_days=2))
    for columns in small_scenario.aggregated_hours(0, 3 * 24):
        service.ingest_hour(columns.hour, columns.to_records())
    return service


class TestServiceCounters:
    def test_ingest_and_retrain_reported(self, ingested_service):
        snap = obs.snapshot()
        assert snap.counters["service.ingest.hours"] == 3 * 24
        assert snap.counters["service.ingest.records"] > 0
        # three day boundaries crossed -> one retrain each
        assert snap.counters["service.retrain.count"] == 3
        assert snap.histograms["service.retrain.seconds"].count >= 2

    def test_serving_counters(self, small_scenario, ingested_service):
        contexts = small_scenario.flow_contexts
        ingested_service.predict_batch(contexts)
        ingested_service.what_if([(contexts[0], 100.0)], frozenset())
        snap = obs.snapshot()
        assert snap.counters["service.predict.batches"] == 1
        assert snap.counters["service.predict.flows"] == len(contexts)
        assert snap.counters["service.what_if.calls"] == 1
        assert snap.counters["service.what_if.flows"] == 1
        assert snap.histograms["service.predict_batch.seconds"].count == 1

    def test_export_gauges_publishes_cache_stats(self, ingested_service):
        ingested_service.export_gauges()
        gauges = obs.snapshot().gauges
        for key, value in ingested_service.cache_stats().items():
            assert gauges["service." + key] == float(value)
        assert gauges["service.retrain_count"] >= 2

    def test_untouched_when_disabled(self, small_scenario):
        obs.reset()
        service = TipsyService(small_scenario.wan,
                               ServiceConfig(training_window_days=2))
        for columns in small_scenario.aggregated_hours(0, 24):
            service.ingest_hour(columns.hour, columns.to_records())
        assert obs.snapshot().empty


class TestParallelMerge:
    def test_parallel_results_unchanged_by_instrumentation(
            self, small_scenario):
        """The feed yields the same records with the switch on as off."""
        plain = [c.to_records()
                 for c in small_scenario.aggregated_hours(0, 6)]
        obs.enable(fresh=True)
        instrumented = [c.to_records()
                        for c in small_scenario.aggregated_hours(0, 6)]
        assert obs.snapshot().counters["pipeline.aggregate.hours"] == 6
        assert plain == instrumented


class TestObsCli:
    def test_all_formats_and_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        out_path = tmp_path / "snap.json"
        rc = obs_main(["--days", "2", "--format", "json",
                       "-o", str(out_path), "--trace-out", str(trace_path)])
        assert rc == 0
        snapshot = json.loads(out_path.read_text())
        assert snapshot["counters"]["service.ingest.hours"] == 48
        # the served workload's own work shows up in the export
        assert snapshot["counters"]["service.predict.flows"] > 0
        assert "service.retrain.seconds" in snapshot["histograms"]
        trace = json.loads(trace_path.read_text())
        names = [span["name"] for span in trace["spans"]]
        assert "obs.example_run" in names

    def test_reports_the_pipeline_it_ran(self, capsys):
        """The example workload ingests through the aggregation feed, so
        the ``pipeline.aggregate.*`` rows of docs/observability.md are in
        what ``repro obs`` emits."""
        assert obs_main(["--days", "2", "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["pipeline.aggregate.hours"] == 48
        assert snapshot["counters"]["pipeline.aggregate.records_in"] > 0
        assert snapshot["histograms"][
            "pipeline.aggregate_hour.seconds"]["count"] == 48

    def test_prometheus_to_stdout(self, capsys):
        rc = obs_main(["--days", "2", "--format", "prometheus"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_service_ingest_hours counter" in out

    def test_rejects_too_few_days(self):
        with pytest.raises(SystemExit):
            obs_main(["--days", "1"])
