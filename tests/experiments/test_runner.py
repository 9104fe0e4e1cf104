"""Tests for the evaluation runner (the §5 methodology)."""

import numpy as np
import pytest

from repro.experiments import EvaluationRunner, WindowSpec
from repro.experiments.runner import _WINDOW_SLOTS
from tests.experiments.stream_oracle import StreamWindows, _StreamAccumulator


class TestWindowSpec:
    def test_hours(self):
        w = WindowSpec(train_start_day=2, train_days=10, test_days=3)
        assert w.train_hours == (48, 288)
        assert w.test_hours == (288, 360)

    @pytest.mark.parametrize("fields", [(0, 0, 7), (0, 21, 0), (0, -1, 7),
                                        (0, 21, -2), (-1, 21, 7)])
    def test_rejects_less_than_a_day_or_a_start_before_day_0(self, fields):
        with pytest.raises(ValueError):
            WindowSpec(*fields)


class TestEvaluationResult:
    def test_blocks_have_all_models(self, small_result):
        expected = {"Oracle_A", "Oracle_AP", "Oracle_AL", "Hist_A",
                    "Hist_AP", "Hist_AL", "Hist_AL+G", "Hist_AP/AL/A",
                    "Hist_AL/AP/A"}
        assert expected <= set(small_result.overall.rows)

    def test_accuracies_in_unit_interval(self, small_result):
        for block in (small_result.overall, small_result.outages_all,
                      small_result.outages_seen,
                      small_result.outages_unseen):
            for per_k in block.rows.values():
                for acc in per_k.values():
                    assert 0.0 <= acc <= 1.0

    def test_accuracy_monotone_in_k(self, small_result):
        for per_k in small_result.overall.rows.values():
            assert per_k[1] <= per_k[2] <= per_k[3]

    def test_oracle_dominates_matching_hist(self, small_result):
        rows = small_result.overall.rows
        for fs in ("A", "AP", "AL"):
            for k in (1, 2, 3):
                assert rows[f"Oracle_{fs}"][k] >= rows[f"Hist_{fs}"][k] - 1e-9

    def test_finer_oracles_beat_coarser(self, small_result):
        """Paper Table 4's grain ordering, AP > AL > A at every k, for the
        oracles and for the historical models that serve."""
        rows = small_result.overall.rows
        for family in ("Oracle_", "Hist_"):
            for k in (1, 2, 3):
                assert (rows[f"{family}AP"][k] > rows[f"{family}AL"][k]
                        > rows[f"{family}A"][k]), (family, k)

    def test_overall_accuracy_is_high(self, small_result):
        """Headline of paper Table 4: AP/AL models above ~90% at k=3."""
        rows = small_result.overall.rows
        assert rows["Hist_AP"][3] > 0.9
        assert rows["Hist_AP/AL/A"][3] > 0.9

    def test_outage_accuracy_lower_than_overall(self, small_result):
        """Paper Tables 4 vs 5: withdrawals are the hard case, for every
        historical model at top-1."""
        if small_result.outages_all.total_bytes == 0:
            pytest.skip("no outage-affected bytes in this window")
        overall = small_result.overall.rows
        outage = small_result.outages_all.rows
        hists = [name for name in overall if name.startswith("Hist_")]
        assert len(hists) == 6
        for name in hists:
            assert outage[name][1] < overall[name][1], name

    def test_stats_consistent(self, small_result):
        stats = small_result.stats
        assert stats["outage_bytes"] == pytest.approx(
            stats["seen_bytes"] + stats["unseen_bytes"])
        assert 0.0 <= stats["unseen_fraction"] <= 1.0
        assert stats["total_bytes"] > 0

    def test_overall_actuals_populated(self, small_result):
        """The test window's keyed table: context, link and bytes columns
        over more than a hundred contexts."""
        table = small_result.overall_actuals
        assert list(table) == ["k0", "k1", "k2", "k3", "k4", "k5", "value"]
        contexts = set(zip(*(table[f"k{i}"].tolist() for i in range(5))))
        assert len(contexts) > 100
        assert table["value"].sum() == small_result.stats["total_bytes"]

    def test_best_model_helper(self, small_result):
        best = small_result.overall.best_model(3)
        assert not best.startswith("Oracle")


class TestRunnerMechanics:
    def test_window_must_fit_horizon(self, small_scenario):
        runner = EvaluationRunner(small_scenario)
        with pytest.raises(ValueError):
            runner.run(WindowSpec(0, 21, 7))  # horizon is 14 days

    def test_actuals_window_cached(self, small_scenario):
        runner = EvaluationRunner(small_scenario)
        a = runner.actuals_window(0, 24)
        b = runner.actuals_window(0, 24)
        assert a is b

    def test_window_caches_keep_at_most_their_slots(self, small_scenario):
        """More distinct windows than the caches hold: each keeps the
        latest ``_WINDOW_SLOTS``, and a window asked for again while
        held is the same object."""
        runner = EvaluationRunner(small_scenario)
        spans = [(2 * i, 2 * i + 2) for i in range(_WINDOW_SLOTS + 2)]
        for lo, hi in spans:
            runner.feed_window(lo, hi)
            runner.actuals_window(lo, hi)
            assert len(runner._feed_cache) <= _WINDOW_SLOTS
            assert len(runner._actuals_cache) <= _WINDOW_SLOTS
        assert len(runner._feed_cache) == _WINDOW_SLOTS
        latest = spans[-1]
        assert runner.feed_window(*latest) is runner.feed_window(*latest)
        assert runner._feed_cache.evictions == len(spans) - _WINDOW_SLOTS
        assert runner._actuals_cache.evictions == len(spans) - _WINDOW_SLOTS

    def test_window_tables_equal_the_dict_walk(self, small_scenario):
        """The folded window is the serial walk, bit for bit.

        ``collect_window`` (``tests/experiments/stream_oracle.py``, the
        streamed ground truth the test side read before the feed) against
        the per-(row, link) walk it replaced: an epoch (same expansion, same down-set) summed hour by hour,
        then its non-zero rows added key by key, in stream order.  Hours
        0-96 of this world change expansion with and without a down-set
        change (hour 48 is a day boundary only) and return to down-sets
        seen before ({} at 17 and 77, {0} at 76).
        """
        lo, hi = 0, 96
        scenario = small_scenario
        total, by_downset = {}, {}
        epochs = []
        for cols in scenario.stream(lo, hi):
            down = scenario.scheduled_down_at(cols.hour)
            if (not epochs or epochs[-1][0] is not cols.flow_rows
                    or epochs[-1][3] != down):
                epochs.append((cols.flow_rows, cols.link_ids,
                               np.zeros(len(cols.flow_rows)), down))
            epochs[-1][2][:] += cols.sampled_bytes
        for rows, links, sums, down in epochs:
            bucket = by_downset.setdefault(down, {})
            for row, link, value in zip(rows.tolist(), links.tolist(),
                                        sums.tolist()):
                if value > 0.0:
                    key = (row, link)
                    bucket[key] = bucket.get(key, 0.0) + value
                    total[key] = total.get(key, 0.0) + value
        assert len({id(e[0]) for e in epochs}) > 2 and len(by_downset) > 2
        assert len(epochs) > len(by_downset)

        def pairs(table):
            assert table["k0"].dtype == table["k1"].dtype == np.int64
            assert table["value"].dtype == np.float64
            return list(zip(zip(table["k0"].tolist(), table["k1"].tolist()),
                            table["value"].tolist()))

        streamed = StreamWindows(scenario)
        acc = streamed.collect_window(lo, hi)
        # lists, not dicts: key order is part of what is pinned
        assert pairs(acc.total) == list(total.items())
        assert list(acc.by_downset) == list(by_downset)
        for down, bucket in by_downset.items():
            assert pairs(acc.by_downset[down]) == list(bucket.items())
        assert streamed.collect_window(lo, hi) is acc

    def test_streamed_oracle_holds_its_tables_and_one_epoch(
            self, small_scenario):
        """Every keyed table the streamed oracle holds while it walks is
        one of its folded tables: a closed epoch is folded in at once,
        never kept aside for ``finish``, so that the open epoch's arrays
        are all it holds beside them (on a paper-scale window, keeping
        every epoch's rows was most of a gigabyte)."""
        def rows_held(value):
            if isinstance(value, dict):
                return (len(value["value"]) if "value" in value
                        else sum(map(rows_held, value.values())))
            if isinstance(value, (list, tuple)):
                return sum(map(rows_held, value))
            return 0

        acc = _StreamAccumulator()
        epochs = 0
        for cols in small_scenario.stream(0, 96):
            epochs += acc._epoch_rows is not cols.flow_rows
            acc.add_hour(cols, small_scenario.scheduled_down_at(cols.hour))
            folded = len(acc.total["value"]) + sum(
                len(table["value"]) for table in acc.by_downset.values())
            assert rows_held(vars(acc)) == folded
        assert epochs > 2

    def test_actuals_window_is_the_streamed_ground_truth(
            self, small_scenario):
        """The feed's test window, whole and per down-set, against the
        streamed oracle mapped to contexts: the same (context, link) keys
        and the same bytes as ``float.hex``, and the same down-sets in
        the same order.  Row order differs (the feed groups an hour by
        (context, link), the stream by flow row); the sums do not,
        because every sampled byte count is a multiple of 2**15.  Hours
        240-336 are ``small_result``'s test window."""
        lo, hi = 240, 336
        streamed = StreamWindows(small_scenario)
        acc = streamed.collect_window(lo, hi)
        window = EvaluationRunner(small_scenario).actuals_window(lo, hi)

        def hexed(table):
            *fields, links = (table[f"k{i}"].tolist() for i in range(6))
            assert len(set(zip(*fields, links))) == len(links)
            return {(context, link): bytes_.hex() for context, link, bytes_
                    in zip(zip(*fields), links, table["value"].tolist())}

        def walked(pairs):
            return {(context, link): bytes_.hex()
                    for context, by_link in
                    streamed._actuals_from_pairs(pairs).items()
                    for link, bytes_ in by_link.items()}

        assert hexed(window.total) == walked(acc.total)
        assert list(window.by_downset) == list(acc.by_downset)
        assert sum(1 for down in acc.by_downset if down) > 10
        for down, pairs in acc.by_downset.items():
            assert hexed(window.by_downset[down]) == walked(pairs), down

    def test_feed_window_link_bytes_are_the_streamed_bytes(
            self, small_scenario):
        """The matrix outage inference reads: per hour, the stream's
        sampled bytes summed per link, as the feed carries them."""
        lo, hi = 0, 96
        n_links = len(small_scenario.wan.links)
        matrix = np.zeros((n_links, hi - lo))
        for cols in small_scenario.stream(lo, hi):
            matrix[:, cols.hour - lo] = np.bincount(
                cols.link_ids, weights=cols.sampled_bytes, minlength=n_links)
        runner = EvaluationRunner(small_scenario)
        window = runner.feed_window(lo, hi)
        assert window.link_bytes.dtype == np.float64
        assert window.link_bytes.tobytes() == matrix.tobytes()
        assert runner.feed_window(lo, hi) is window

    def test_naive_bayes_opt_in(self, small_scenario):
        runner = EvaluationRunner(small_scenario)
        result = runner.run(WindowSpec(0, 4, 2), include_naive_bayes=True)
        assert "NB_A" in result.overall.rows
        assert "NB_AL" in result.overall.rows
        assert "Hist_AL/NB_AL" in result.overall.rows

    @pytest.mark.parametrize("args", [(0, 0, 1), (0, 3, 0), (-1, 3, 1),
                                      (0, -2, 1)])
    def test_run_staleness_rejects_what_window_spec_rejects(
            self, small_scenario, args):
        """No training day (every historical model would score 0.0 beside
        oracles near 1), no day to score, or a start before day 0: the
        ``WindowSpec`` error, before anything is trained."""
        with pytest.raises(ValueError, match="not whole train and test days"):
            EvaluationRunner(small_scenario).run_staleness(*args)

    def test_run_staleness_shape(self, small_scenario):
        runner = EvaluationRunner(small_scenario)
        out = runner.run_staleness(train_start_day=0, train_days=8,
                                   max_offset_days=3)
        assert set(out) == {0, 1, 2}
        for rows in out.values():
            assert "Hist_AP/AL/A" in rows
            assert set(rows["Hist_AP/AL/A"]) == {1, 2, 3}
