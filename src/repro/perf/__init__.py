"""Performance layer: parallel pipeline execution.

The paper's pipeline aggregates TBs/day on a Spark cluster (§4.2-§4.3);
this package is the reproduction's equivalent scaling story.  It fans
the telemetry→aggregation→training path out over a process pool with
deterministic hour sharding (:class:`ParallelPipelineRunner`).
"""

from .parallel import ParallelPipelineRunner, default_workers, make_shards

__all__ = ["ParallelPipelineRunner", "default_workers", "make_shards"]
