"""Long-running serving daemon with sharded model state.

The deployment form of :class:`~repro.core.service.TipsyService`
(``docs/operations.md``): an hourly telemetry stream is sharded by
feature-key hash across worker processes, each worker's shard server
(:class:`~repro.serve.worker.ShardServer`) holds one ``TipsyService``
that rebuilds its slice's models daily, and each day's publications are
merged into the suite :class:`~repro.serve.daemon.ServeDaemon` answers
batched queries from in its own process, bit-identical to the
single-process service.  ``repro serve
run`` drives it from the CLI; the ``serve_live`` workload of
``benchmarks/e2e`` measures it under sustained concurrent ingest.
"""

from .daemon import DaemonConfig, ServeDaemon, ShardError
from .health import DaemonStatus, ShardHealth
from .sharding import shard_of, split_columns

__all__ = [
    "DaemonConfig", "ServeDaemon", "ShardError",
    "DaemonStatus", "ShardHealth",
    "shard_of", "split_columns",
]
