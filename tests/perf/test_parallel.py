"""Serial/parallel equivalence of the pipeline runner.

The contract under test is the tentpole guarantee: fanning the hourly
pipeline over a process pool yields *bit-identical* results to the
serial path — same aggregated records, same training counts, same
trained-model predictions — for any worker count and sharding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FEATURES_A, FEATURES_AL, HistoricalModel
from repro.core.training import CountsAccumulator
from repro.experiments import EvaluationRunner
from repro.perf import ParallelPipelineRunner, make_shards

WINDOW_HOURS = 24


@pytest.fixture(scope="module")
def pipeline(small_scenario):
    """One shared pool for the module (startup costs a second)."""
    with ParallelPipelineRunner(scenario=small_scenario, n_workers=2,
                                shard_hours=7) as runner:
        yield runner


class TestMakeShards:
    def test_covers_window_contiguously(self):
        shards = make_shards(3, 50, 4)
        assert shards[0][0] == 3
        assert shards[-1][1] == 50
        for (_, hi), (lo, _) in zip(shards, shards[1:]):
            assert hi == lo

    def test_balanced(self):
        sizes = [hi - lo for lo, hi in make_shards(0, 50, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_alignment(self):
        shards = make_shards(0, 24 * 7, 3, align_hours=24)
        assert all(lo % 24 == 0 for lo, _ in shards)
        assert shards[-1][1] == 24 * 7

    def test_more_shards_than_hours(self):
        shards = make_shards(0, 3, 10)
        assert shards == [(0, 1), (1, 2), (2, 3)]

    def test_empty_window(self):
        assert make_shards(5, 5, 4) == []

    def test_bad_alignment_rejected(self):
        with pytest.raises(ValueError):
            make_shards(0, 24, 2, align_hours=0)


class TestEquivalence:
    def test_hour_columns_bit_identical(self, pipeline):
        serial = list(pipeline.iter_hour_columns(0, WINDOW_HOURS,
                                                 parallel=False))
        parallel = list(pipeline.iter_hour_columns(0, WINDOW_HOURS,
                                                   parallel=True))
        assert [c.hour for c in parallel] == list(range(WINDOW_HOURS))
        assert len(serial) == len(parallel)
        for s, p in zip(serial, parallel):
            assert s.hour == p.hour
            for i in range(1, 8):  # every array field, bytes included
                assert np.array_equal(s[i], p[i])

    def test_agg_records_identical(self, pipeline):
        serial, parallel = (
            {c.hour: c.to_records() for c in pipeline.iter_hour_columns(
                0, WINDOW_HOURS, parallel=mode)} for mode in (False, True))
        assert serial == parallel  # full AggRecord equality, order included

    def test_counts_and_trained_models_identical(self, pipeline):
        par, ser = CountsAccumulator(), CountsAccumulator()
        for counts, mode in ((par, True), (ser, False)):
            for columns in pipeline.iter_hour_columns(0, WINDOW_HOURS,
                                                      parallel=mode):
                counts.consume_hour(columns.hour, columns.to_records())
        assert par.counts == ser.counts  # bit-identical floats

        models = {}
        for label, counts in (("par", par), ("ser", ser)):
            hist_a = HistoricalModel(FEATURES_A)
            hist_al = HistoricalModel(FEATURES_AL)
            counts.fit([hist_a, hist_al])
            models[label] = (hist_a, hist_al)
        contexts = pipeline.scenario.flow_contexts
        for pm, sm in zip(models["par"], models["ser"]):
            assert pm.size() == sm.size()
            for context in contexts:
                assert pm.predict(context, 3, frozenset()) == \
                    sm.predict(context, 3, frozenset())

    def test_stats_match_serial(self, small_scenario):
        with ParallelPipelineRunner(scenario=small_scenario,
                                    n_workers=2, shard_hours=6) as runner:
            list(runner.iter_hour_columns(0, 12, parallel=True))
            par_stats = (runner.stats.records_in, runner.stats.records_out,
                         runner.stats.records_dropped)
        with ParallelPipelineRunner(scenario=small_scenario,
                                    n_workers=1) as runner:
            list(runner.iter_hour_columns(0, 12, parallel=False))
            ser_stats = (runner.stats.records_in, runner.stats.records_out,
                         runner.stats.records_dropped)
        assert par_stats == ser_stats
        assert par_stats[0] > 0


class TestCollectWindow:
    def test_matches_evaluation_runner(self, small_scenario, pipeline):
        hours = 48
        parallel = pipeline.collect_window(0, hours)
        serial = EvaluationRunner(small_scenario).collect_window(0, hours)
        assert np.array_equal(parallel.link_matrix, serial.link_matrix)
        assert set(parallel.by_downset) == set(serial.by_downset)
        assert set(parallel.total) == set(serial.total)
        for key, value in serial.total.items():
            assert parallel.total[key] == pytest.approx(value, rel=1e-12)
        for down, pairs in serial.by_downset.items():
            par_pairs = parallel.by_downset[down]
            assert set(par_pairs) == set(pairs)
            for key, value in pairs.items():
                assert par_pairs[key] == pytest.approx(value, rel=1e-12)

    def test_runner_accepts_pipeline(self, small_scenario, pipeline):
        runner = EvaluationRunner(small_scenario, pipeline=pipeline)
        acc = runner.collect_window(0, 24)
        reference = EvaluationRunner(small_scenario).collect_window(0, 24)
        assert np.array_equal(acc.link_matrix, reference.link_matrix)
        # cached: the second call must return the same object
        assert runner.collect_window(0, 24) is acc

    def test_runner_rejects_mismatched_pipeline(self, small_scenario):
        from repro.experiments import Scenario, ScenarioParams

        other = Scenario(ScenarioParams.small(seed=99, horizon_days=10))
        with ParallelPipelineRunner(scenario=other, n_workers=1) as runner:
            with pytest.raises(ValueError, match="must match"):
                EvaluationRunner(small_scenario, pipeline=runner)


class TestPrecomputeTables:
    @staticmethod
    def _deseeding_keys(scenario, n):
        """Removal keys that each take a whole peer down (all its links),
        so every key needs a genuinely different routing table."""
        keys = []
        for asn in sorted(scenario.wan.peer_asns):
            links = scenario.wan.links_of_peer(asn)
            keys.append(frozenset(l.link_id for l in links))
            if len(keys) >= n:
                break
        return keys

    def test_worker_tables_bit_identical(self, small_scenario, pipeline):
        from repro.bgp import IngressSimulator

        keys = self._deseeding_keys(small_scenario, 4)
        assert keys
        installed = pipeline.precompute_tables(keys, parallel=True)
        assert installed == len(keys)
        sim = small_scenario.simulator
        fresh = IngressSimulator(small_scenario.graph, small_scenario.wan,
                                 sim.params, seed=sim.seed)
        for key in keys:
            assert sim.routing_table(key).columns_equal(
                fresh.routing_table(key))

    def test_installed_tables_are_cache_hits(self, small_scenario, pipeline):
        keys = self._deseeding_keys(small_scenario, 3)
        pipeline.precompute_tables(keys, parallel=True)
        sim = small_scenario.simulator
        before = sim.cache_stats()["table_hits"]
        for key in keys:
            sim.routing_table(key)
        assert sim.cache_stats()["table_hits"] == before + len(keys)

    def test_serial_path_and_dedupe(self, small_scenario):
        keys = self._deseeding_keys(small_scenario, 3)
        with ParallelPipelineRunner(scenario=small_scenario,
                                    n_workers=1) as runner:
            assert runner.precompute_tables(keys + keys,
                                            parallel=False) == len(keys)
            assert runner.precompute_tables([], parallel=True) == 0
