"""Tests for the paper-reference data and comparison helpers."""

import pytest

from repro.experiments import paper


class TestReferenceData:
    def test_all_tables_well_formed(self):
        for ref in (paper.PAPER_TABLE4, paper.PAPER_TABLE5,
                    paper.PAPER_TABLE6, paper.PAPER_TABLE7,
                    paper.PAPER_TABLE9, paper.PAPER_TABLE10):
            for model, ks in ref.items():
                assert set(ks) == {1, 2, 3}
                assert 0.0 < ks[1] <= ks[2] <= ks[3] <= 1.0, model

    def test_headline_value_present(self):
        # the abstract's 76%: Hist_AL+G top-3 on all outages (Table 5)
        assert paper.PAPER_TABLE5["Hist_AL+G"][3] == pytest.approx(0.7642)
        assert paper.PAPER_FACTS["headline_withdrawal_top3"] == 0.76

    def test_paper_orderings_hold_in_reference(self):
        # sanity: the claims our benchmarks assert are true of the
        # paper's own numbers too
        t4 = paper.PAPER_TABLE4
        assert t4["Hist_AP/AL/A"][3] == max(
            v[3] for m, v in t4.items() if not m.startswith("Oracle"))
        t5 = paper.PAPER_TABLE5
        assert t5["Hist_AL+G"][3] == max(
            v[3] for m, v in t5.items() if not m.startswith("Oracle"))
        t7 = paper.PAPER_TABLE7
        assert all(t7["Hist_AL+G"][k] == max(
            v[k] for m, v in t7.items() if not m.startswith("Oracle"))
            for k in (1, 2, 3))
        t6 = paper.PAPER_TABLE6
        assert t6["Hist_AP"][3] > t7["Hist_AP"][3]  # seen >> unseen


class TestComparisonHelpers:
    def test_format_comparison(self):
        measured = {"Hist_AP": {1: 0.8, 2: 0.9, 3: 0.95}}
        text = paper.format_comparison(measured, paper.PAPER_TABLE4,
                                       "Table 4")
        assert "Hist_AP" in text
        assert "paper" in text

    def test_missing_models_skipped(self):
        text = paper.format_comparison({}, paper.PAPER_TABLE4, "Table 4")
        assert len(text.splitlines()) == 2  # title and header only
