"""Process-parallel telemetry→aggregation→training pipeline.

The paper's pipeline fans TBs/day of IPFIX out over a Spark cluster
(§4.2-§4.3).  :class:`ParallelPipelineRunner` is the reproduction's
equivalent: the scenario horizon is sharded into contiguous hour blocks,
each block is streamed and aggregated in a worker process (the synthetic
world is constructed once per worker, or inherited copy-on-write when
the pool forks from a parent that already built it), and the hourly
results come back in columnar form — numpy arrays serialise across the
process boundary orders of magnitude faster than per-record objects.

Determinism is the design anchor, not an afterthought:

* every per-hour quantity (expansion, volumes, IPFIX sampling) is a
  pure function of the scenario seed and the hour, so a shard streamed
  in a worker equals the same hours streamed serially;
* encoders are pre-seeded at scenario construction, so ordinal codes
  cannot depend on which worker saw a value first;
* shards are contiguous and results are re-assembled in hour order.

Consequently ``iter_hour_columns`` yields *bit-identical* output to the
serial path (``parallel=False``) for any worker count and shard size.
Serial path and workers both run :meth:`Scenario.aggregated_hours`, the
same feed the services and CLIs ingest.

``precompute_tables`` extends the same pattern to the BGP substrate:
routing tables for a set of withdrawal scenarios are derived
incrementally in the workers (dirty-set repair from each worker's
pinned base table), shipped back as snapshot columns, and installed
into the parent simulator's bounded table cache.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Tuple)

from ..bgp.propagation import RoutingTable
from ..obs import runtime as obs
from ..obs.metrics import MetricsSnapshot
from ..pipeline.aggregation import CompressionStats, HourlyAggregator
from ..pipeline.records import AggColumns
from ..experiments.scenario import Scenario, ScenarioParams

if TYPE_CHECKING:
    import numpy as np

    from ..experiments.runner import _StreamAccumulator

#: what one `_collect_shard` call ships back to the parent: the shard
#: bounds plus the accumulator's by-downset/total byte dicts, its
#: per-link matrix slice, and the worker's obs metrics delta (None when
#: instrumentation is off)
ShardResult = Tuple[
    int, int,
    Dict[FrozenSet[int], Dict[Tuple[int, int], float]],
    Dict[Tuple[int, int], float],
    "np.ndarray",
    Optional[MetricsSnapshot],
]


def default_workers() -> int:
    """Worker-count default: the machine's cores, capped sensibly."""
    return max(1, min(os.cpu_count() or 1, 8))


# -- worker-side state --------------------------------------------------------

#: set by the parent just before the pool starts so that fork-based pools
#: inherit an already-built scenario copy-on-write instead of rebuilding
_PARENT_SCENARIO: Optional[Scenario] = None

_WORKER: Dict[str, object] = {}


def _init_worker(params: ScenarioParams, obs_enabled: bool = False) -> None:
    if obs_enabled:
        # each worker owns a fresh registry (a forked child inherits the
        # parent's copy-on-write and must not re-report its counts); the
        # shard functions ship per-task deltas back for the parent to merge
        obs.enable(fresh=True)
    scenario = _PARENT_SCENARIO
    if scenario is None or scenario.params != params:
        scenario = Scenario(params)
    # RA501: _WORKER is the worker-local cache this initializer exists to
    # populate — it is never read by the parent, only by shard functions
    # running in the same child process.
    _WORKER["scenario"] = scenario  # repro: noqa[RA501]
    _WORKER["aggregators"] = {}  # repro: noqa[RA501]


def _worker_aggregator(scenario: Scenario, strict: bool) -> HourlyAggregator:
    # RA501: worker-local memo (see _init_worker); results return via the
    # shard functions' pickled return values, never via this dict.
    aggregators: Dict[bool, HourlyAggregator] = _WORKER.setdefault(  # repro: noqa[RA501]
        "aggregators", {})  # type: ignore[assignment]
    agg = aggregators.get(strict)
    if agg is None:
        # sharing the scenario's pre-seeded encoders keeps ordinal codes
        # identical across workers regardless of processing order
        agg = HourlyAggregator(scenario.metadata, encoders=scenario.encoders,
                               strict=strict)
        aggregators[strict] = agg
    return agg


def _obs_delta_start() -> Optional[MetricsSnapshot]:
    """Pre-task registry snapshot (None when instrumentation is off)."""
    if not obs.enabled():
        return None
    return obs.snapshot()


def _obs_delta_finish(
        before: Optional[MetricsSnapshot]) -> Optional[MetricsSnapshot]:
    """This task's metrics activity, for the parent to merge."""
    if before is None:
        return None
    return obs.snapshot().diff(before)


def _aggregate_shard(
    task: Tuple[int, int, bool, bool],
) -> Tuple[List[AggColumns], Tuple[int, int, int],
           Optional[MetricsSnapshot]]:
    start_hour, end_hour, use_sampled, strict = task
    scenario: Scenario = _WORKER["scenario"]  # type: ignore[assignment]
    aggregator = _worker_aggregator(scenario, strict)
    obs_before = _obs_delta_start()
    before = (aggregator.stats.records_in, aggregator.stats.records_out,
              aggregator.stats.records_dropped)
    out = list(scenario.aggregated_hours(start_hour, end_hour, aggregator,
                                         use_sampled))
    delta = (aggregator.stats.records_in - before[0],
             aggregator.stats.records_out - before[1],
             aggregator.stats.records_dropped - before[2])
    return out, delta, _obs_delta_finish(obs_before)


def _collect_shard(task: Tuple[int, int]) -> ShardResult:
    """One shard of an evaluation-runner window collection."""
    from ..experiments.runner import _StreamAccumulator

    start_hour, end_hour = task
    scenario: Scenario = _WORKER["scenario"]  # type: ignore[assignment]
    obs_before = _obs_delta_start()
    acc = _StreamAccumulator(len(scenario.wan.links),
                             end_hour - start_hour, start_hour)
    for cols in scenario.stream(start_hour, end_hour):
        acc.add_hour(cols, scenario.scheduled_down_at(cols.hour))
    acc.flush()
    return (start_hour, end_hour, acc.by_downset, acc.total, acc.link_matrix,
            _obs_delta_finish(obs_before))


#: one precomputed routing table shipped back from a worker: the removal
#: key it answers plus the table's snapshot columns (numpy arrays cross
#: the process boundary far faster than per-AS RouteInfo objects)
TableResult = Tuple[FrozenSet[int], Dict[str, "np.ndarray"]]


def _tables_shard(
    task: Tuple[Tuple[FrozenSet[int], ...]],
) -> Tuple[List[TableResult], Optional[MetricsSnapshot]]:
    """Compute routing tables for one shard of removal keys."""
    (keys,) = task
    scenario: Scenario = _WORKER["scenario"]  # type: ignore[assignment]
    sim = scenario.simulator
    obs_before = _obs_delta_start()
    out: List[TableResult] = []
    for removed in keys:
        out.append((removed, sim.routing_table(removed).to_arrays()))
    return out, _obs_delta_finish(obs_before)


# -- sharding -----------------------------------------------------------------

def make_shards(start_hour: int, end_hour: int, n_shards: int,
                align_hours: int = 1) -> List[Tuple[int, int]]:
    """Split ``[start_hour, end_hour)`` into contiguous balanced blocks.

    Deterministic: depends only on the arguments.  With ``align_hours``
    set (e.g. 24), shard boundaries fall on multiples of it so epochs
    that never span that alignment never span a shard either.
    """
    if align_hours < 1:
        raise ValueError("align_hours must be >= 1")
    span = end_hour - start_hour
    if span <= 0:
        return []
    units = (span + align_hours - 1) // align_hours
    n_shards = max(1, min(n_shards, units))
    base, extra = divmod(units, n_shards)
    shards: List[Tuple[int, int]] = []
    lo = start_hour
    for i in range(n_shards):
        size = (base + (1 if i < extra else 0)) * align_hours
        hi = min(lo + size, end_hour)
        if hi > lo:
            shards.append((lo, hi))
        lo = hi
    return shards


# -- the runner ---------------------------------------------------------------

class ParallelPipelineRunner:
    """Fan the hourly pipeline out over a process pool.

    Construct from ``ScenarioParams`` (each worker builds the world
    once) or from an existing ``Scenario`` (fork-based pools inherit it
    copy-on-write; the serial reference path reuses it directly).

    The runner is a context manager; ``close()`` shuts the pool down.
    """

    def __init__(
        self,
        params: Optional[ScenarioParams] = None,
        scenario: Optional[Scenario] = None,
        n_workers: Optional[int] = None,
        shard_hours: Optional[int] = None,
        use_sampled: bool = True,
        strict: bool = True,
        start_method: Optional[str] = None,
    ):
        if scenario is not None:
            params = scenario.params
        elif params is None:
            params = ScenarioParams()
        self.params = params
        self.n_workers = n_workers if n_workers else default_workers()
        self.shard_hours = shard_hours
        self.use_sampled = use_sampled
        self.strict = strict
        self.start_method = start_method
        self.stats = CompressionStats()
        self._scenario = scenario
        self._serial_aggregator: Optional[HourlyAggregator] = None
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def scenario(self) -> Scenario:
        """The parent-side scenario (built lazily for serial runs)."""
        if self._scenario is None:
            self._scenario = Scenario(self.params)
        return self._scenario

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            global _PARENT_SCENARIO
            context = multiprocessing.get_context(self.start_method)
            # fork-based pools adopt the parent's scenario copy-on-write;
            # spawn-based pools rebuild from params in the initializer
            _PARENT_SCENARIO = self._scenario
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=context,
                initializer=_init_worker,
                initargs=(self.params, obs.enabled()))
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "ParallelPipelineRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the aggregated hourly stream --------------------------------------

    def _shards_for(self, start_hour: int, end_hour: int,
                    align_hours: int = 1) -> List[Tuple[int, int]]:
        if self.shard_hours is not None:
            n_shards = max(1, -(-(end_hour - start_hour) // self.shard_hours))
        else:
            n_shards = self.n_workers
        return make_shards(start_hour, end_hour, n_shards, align_hours)

    def iter_hour_columns(self, start_hour: int, end_hour: int,
                          parallel: bool = True) -> Iterator[AggColumns]:
        """Aggregated hours of ``[start_hour, end_hour)``, in hour order.

        ``parallel=False`` runs the identical code path in-process; the
        two modes yield bit-identical columns.
        """
        if not parallel or self.n_workers <= 1 or (
                end_hour - start_hour) <= 1:
            scenario = self.scenario
            if self._serial_aggregator is None:
                self._serial_aggregator = HourlyAggregator(
                    scenario.metadata, encoders=scenario.encoders,
                    strict=self.strict)
            aggregator = self._serial_aggregator
            before = (aggregator.stats.records_in,
                      aggregator.stats.records_out,
                      aggregator.stats.records_dropped)
            yield from scenario.aggregated_hours(
                start_hour, end_hour, aggregator, self.use_sampled)
            self.stats.records_in += aggregator.stats.records_in - before[0]
            self.stats.records_out += aggregator.stats.records_out - before[1]
            self.stats.records_dropped += (
                aggregator.stats.records_dropped - before[2])
            return
        shards = self._shards_for(start_hour, end_hour)
        obs.count("pipeline.shards_dispatched", float(len(shards)))
        pool = self._pool()
        futures = [
            pool.submit(_aggregate_shard,
                        (lo, hi, self.use_sampled, self.strict))
            for lo, hi in shards
        ]
        for future in futures:
            columns_list, (d_in, d_out, d_drop), obs_delta = future.result()
            self.stats.records_in += d_in
            self.stats.records_out += d_out
            self.stats.records_dropped += d_drop
            if obs_delta is not None and obs.enabled():
                obs.registry().merge(obs_delta)
            for columns in columns_list:
                yield columns

    # -- evaluation-runner windows ------------------------------------------

    def collect_window(self, start_hour: int,
                       end_hour: int) -> "_StreamAccumulator":
        """A parallel ``EvaluationRunner.collect_window`` equivalent.

        Shards are day-aligned so no accumulator epoch spans a shard
        boundary (expansion epochs never cross a day).  Per-key byte
        totals can differ from the serial pass only in float summation
        grouping when a key spans three or more epochs across shards —
        identical key sets, identical link matrix, byte totals equal to
        within rounding.
        """
        from ..experiments.runner import _StreamAccumulator

        shards = self._shards_for(start_hour, end_hour, align_hours=24)
        acc = _StreamAccumulator(len(self.scenario.wan.links),
                                 end_hour - start_hour, start_hour)
        if self.n_workers <= 1 or len(shards) <= 1:
            scenario = self.scenario
            for cols in scenario.stream(start_hour, end_hour):
                acc.add_hour(cols, scenario.scheduled_down_at(cols.hour))
            acc.flush()
            return acc
        pool = self._pool()
        obs.count("pipeline.shards_dispatched", float(len(shards)))
        futures = [pool.submit(_collect_shard, shard) for shard in shards]
        for future in futures:
            (lo, hi, by_downset, total, link_matrix,
             obs_delta) = future.result()
            acc.link_matrix[:, lo - start_hour:hi - start_hour] = link_matrix
            for down, pairs in by_downset.items():
                bucket = acc.by_downset.setdefault(down, {})
                for key, value in pairs.items():
                    bucket[key] = bucket.get(key, 0.0) + value
            for key, value in total.items():
                acc.total[key] = acc.total.get(key, 0.0) + value
            if obs_delta is not None and obs.enabled():
                obs.registry().merge(obs_delta)
        return acc

    # -- routing-table precompute -------------------------------------------

    def precompute_tables(self, removal_keys: Sequence[FrozenSet[int]],
                          parallel: bool = True) -> int:
        """Warm the simulator's routing-table cache for ``removal_keys``.

        Keys are deduplicated and sharded deterministically (sorted link
        ids); each worker derives its tables incrementally from its own
        pinned base table and ships back snapshot columns, which the
        parent rehydrates with :meth:`RoutingTable.from_arrays` and
        installs via :meth:`IngressSimulator.install_table`.  Because a
        table is a pure function of the graph and the surviving seed
        set, worker-computed tables are bit-identical to parent-computed
        ones — ``parallel=False`` runs the same loop in-process.

        Returns the number of distinct keys warmed.
        """
        sim = self.scenario.simulator
        keys = sorted({frozenset(k) for k in removal_keys},
                      key=lambda k: tuple(sorted(k)))
        if not keys:
            return 0
        if not parallel or self.n_workers <= 1 or len(keys) <= 1:
            for removed in keys:
                sim.routing_table(removed)
            return len(keys)
        n_shards = min(self.n_workers, len(keys))
        base, extra = divmod(len(keys), n_shards)
        shards: List[Tuple[FrozenSet[int], ...]] = []
        lo = 0
        for i in range(n_shards):
            hi = lo + base + (1 if i < extra else 0)
            shards.append(tuple(keys[lo:hi]))
            lo = hi
        obs.count("bgp.table_shards_dispatched", float(len(shards)))
        pool = self._pool()
        futures = [pool.submit(_tables_shard, (shard,)) for shard in shards]
        graph = self.scenario.graph
        installed = 0
        for future in futures:
            results, obs_delta = future.result()
            for removed, arrays in results:
                sim.install_table(removed,
                                  RoutingTable.from_arrays(graph, arrays))
                installed += 1
            if obs_delta is not None and obs.enabled():
                obs.registry().merge(obs_delta)
        obs.count("bgp.tables_precomputed", float(installed))
        return installed
