"""Integration tests across the whole stack.

These exercise the record-level (pipeline-faithful) path against the
columnar fast path, the full evaluation, and the paper's qualitative
claims on the shared small scenario.
"""

import numpy as np
import pytest

from repro.pipeline import HourlyAggregator, OutageInference
from tests.core.counts_oracle import CountsAccumulator


class TestRecordPathMatchesColumnarPath:
    def test_agg_records_match_fast_path(self, small_scenario):
        """The one feed equals the record reference (IPFIX records ->
        ``aggregate_hour``) exactly: same records, same order, same
        floats, hour by hour."""
        sc = small_scenario
        reference = HourlyAggregator(sc.metadata, encoders=sc.encoders)
        feed = list(sc.aggregated_hours(0, 30))
        assert [columns.hour for columns in feed] == list(range(30))
        for cols in sc.stream(0, 30):
            assert feed[cols.hour].to_records() == reference.aggregate_hour(
                cols.hour, sc.ipfix_records_for(cols))
        assert feed[5].n_records > 0

    def test_counts_accumulator_consumes_agg_records(self, small_scenario):
        sc = small_scenario
        acc = CountsAccumulator()
        for columns in sc.aggregated_hours(0, 12):
            acc.consume_hour(columns.hour, columns.to_records())
        assert len(acc) > 50
        assert acc.total_bytes() > 0


class TestOutageInferenceOnRealStream:
    def test_scheduled_outages_are_inferred(self, small_scenario):
        sc = small_scenario
        n_hours = 7 * 24
        row_of = {link_id: i for i, link_id in enumerate(sc.wan.link_ids)}
        matrix = np.zeros((len(row_of), n_hours), dtype=np.float64)
        for cols in sc.stream(0, n_hours):
            rows = [row_of[link_id] for link_id in cols.link_ids.tolist()]
            np.add.at(matrix[:, cols.hour], rows, cols.sampled_bytes)
        inference = OutageInference(sc.wan.link_ids, matrix)
        # every scheduled outage on a traffic-carrying link shows up
        carrying = {
            sc.wan.link_ids[i]
            for i in range(len(sc.wan.link_ids))
            if matrix[i].sum() > 0
        }
        missed = []
        for outage in sc.outage_schedule:
            if outage.end_hour > n_hours or outage.link_id not in carrying:
                continue
            mid = (outage.start_hour + outage.end_hour) // 2
            if outage.link_id not in inference.down_links_at(mid):
                missed.append(outage)
        assert not missed


class TestPaperQualitativeClaims:
    def test_ensemble_beats_components_overall(self, small_result):
        """§5.2: the AP-led ensemble is the best overall model — at every
        k, against every model that is not an oracle (its lead over the
        runner-up is 0.003 / 0.008 / 0.010 at k = 1 / 2 / 3 here)."""
        rows = small_result.overall.rows
        others = [name for name in rows if not name.startswith("Oracle")
                  and name != "Hist_AP/AL/A"]
        assert len(others) == 5
        for k in (1, 2, 3):
            for name in others:
                assert rows["Hist_AP/AL/A"][k] >= rows[name][k], (name, k)

    def test_geo_completion_never_hurts(self, small_result):
        for block in (small_result.overall, small_result.outages_all,
                      small_result.outages_unseen):
            if not block.rows or block.total_bytes == 0:
                continue
            for k in (1, 2, 3):
                assert (block.rows["Hist_AL+G"][k]
                        >= block.rows["Hist_AL"][k] - 1e-9)

    def test_geo_helps_on_unseen_outages(self, small_result):
        """§5.3.2: 'geographic heuristics are effective for unseen
        outages' — the paper's headline mechanism."""
        block = small_result.outages_unseen
        if block.total_bytes == 0:
            pytest.skip("no unseen-outage bytes in this window")
        assert block.rows["Hist_AL+G"][3] >= block.rows["Hist_AL"][3]

    def test_models_below_oracle_on_outages(self, small_result):
        block = small_result.outages_all
        if block.total_bytes == 0:
            pytest.skip("no outage bytes")
        assert block.rows["Hist_AP"][3] <= block.rows["Oracle_AP"][3] + 1e-9

    def test_training_tuples_scale_with_features(self, trained_counts):
        from repro.core import (FEATURES_A, FEATURES_AL, FEATURES_AP,
                                HistoricalModel)
        a, ap, al = (HistoricalModel.from_arrays(trained_counts.project(fs), fs)
                     for fs in (FEATURES_A, FEATURES_AP, FEATURES_AL))
        # Table 1's ordering: |A| <= |AL| <= |AP|
        assert a.size() <= al.size() <= ap.size()
