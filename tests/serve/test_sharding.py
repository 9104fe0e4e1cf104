"""Shard placement: deterministic, total, and order-preserving."""

import pytest

from repro.core.service import TipsyService
from repro.serve import DaemonConfig, ServeDaemon
from repro.serve.daemon import WORKER_MODES
from repro.serve.sharding import SHARD_HASH_SEED, shard_of, split_columns
from repro.util.hashing import mix64


class TestShardOf:
    def test_deterministic_and_in_range(self):
        for asn in range(1, 2000, 37):
            shard = shard_of(asn, 8)
            assert shard == shard_of(asn, 8)
            assert 0 <= shard < 8

    def test_matches_published_hash(self):
        # the placement function is checkpoint format: pin it to mix64
        # with the published seed so it cannot drift silently
        assert shard_of(64500, 16) == mix64(
            64500, seed=SHARD_HASH_SEED) % 16

    def test_single_shard_owns_everything(self):
        assert all(shard_of(asn, 1) == 0 for asn in (1, 7, 64500))

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            shard_of(64500, 0)

    def test_spreads_across_shards(self):
        owners = {shard_of(asn, 4) for asn in range(1, 500)}
        assert owners == {0, 1, 2, 3}

    def test_record_and_context_placement_agree(self, serve_world):
        # a flow's training records all land on its source's shard,
        # so the shards' tables are disjoint — the heart of the
        # equivalence argument
        context_shards = {c.src_asn: shard_of(c.src_asn, 4)
                          for c in serve_world.contexts}
        for record in serve_world.hourly[12]:
            if record.src_asn in context_shards:
                assert (shard_of(record.src_asn, 4)
                        == context_shards[record.src_asn])


class TestSplitRecords:
    """The ingest split: one boolean mask per shard over an hour's columns."""

    def test_every_shard_gets_a_list(self, serve_world):
        shards = split_columns(serve_world.hourly[12].columns, 5)
        assert len(shards) == 5  # empty slices included: hours align
        assert all(shard.hour == 12 for shard in shards)

    def test_partition_is_total_and_order_preserving(self, serve_world):
        records = list(serve_world.hourly[12])
        shards = split_columns(serve_world.hourly[12].columns, 4)
        assert sum(shard.n_records for shard in shards) == len(records)
        for shard_id, shard_columns in enumerate(shards):
            # the same rows, in the same order, as shard_of row by row
            assert shard_columns.to_records() == [
                r for r in records if shard_of(r.src_asn, 4) == shard_id]
            assert all(column.dtype == original.dtype for column, original
                       in zip(shard_columns[1:],
                              serve_world.hourly[12].columns[1:]))


class TestIngestEdge:
    def test_mislabelled_hour_reaches_no_shard(self, serve_world):
        daemon = ServeDaemon(serve_world.scenario.wan, DaemonConfig(
            n_shards=2, workers="inline", service=serve_world.config)).start()
        try:
            for records in (serve_world.hourly[4],
                            list(serve_world.hourly[4])):
                with pytest.raises(ValueError, match="hour 4 .* hour 5"):
                    daemon.ingest_hour(5, records)
            daemon.drain()
            assert daemon.last_hour is None
            assert [shard.last_hour for shard in daemon.status().shards] \
                == [None, None]
        finally:
            daemon.shutdown()


    @pytest.mark.parametrize("workers", WORKER_MODES)
    def test_older_hour_reaches_no_shard(self, serve_world, workers,
                                         tmp_path):
        """Sent on, it would fail on every shard's ingest thread and
        that deferred error would fail every later drain/checkpoint."""
        wan = serve_world.scenario.wan
        daemon = ServeDaemon(wan, DaemonConfig(
            n_shards=2, workers=workers, service=serve_world.config)).start()
        oracle = TipsyService(wan, serve_world.config)
        try:
            for hour in range(30):
                daemon.ingest_hour(hour, serve_world.hourly[hour])
                oracle.ingest_hour(hour, serve_world.hourly[hour])
            with pytest.raises(ValueError, match="older than hour 29"):
                daemon.ingest_hour(5, serve_world.hourly[5])
            assert daemon.last_hour == 29
            daemon.drain()
            daemon.checkpoint(tmp_path)
            # equal hours may repeat (a second batch of the same hour)
            daemon.ingest_hour(29, serve_world.hourly[29])
            oracle.ingest_hour(29, serve_world.hourly[29])
            daemon.drain()
            contexts = serve_world.contexts[:200]
            assert (daemon.predict_batch(contexts)
                    == oracle.predict_batch(contexts))
        finally:
            daemon.shutdown(drain=False)
