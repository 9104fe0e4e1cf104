"""What the four workloads share: sizes, the seeded world, scoring, results.

Every size here was chosen to fit the benchmark driver's wall-clock cap
(about 37 s per run including set-up, see README "Sizing"): days of
telemetry were shrunk, query rates and batch shapes were not.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, TypeVar)

import numpy as np

from repro.core.base import Prediction
from repro.core.service import ServiceConfig, TipsyService
from repro.experiments.scenario import HourColumns, Scenario, ScenarioParams
from repro.pipeline.aggregation import HourlyAggregator
from repro.pipeline.records import AggRecord
from repro.topology.asgraph import generate_as_graph
from repro.topology.geography import MetroCatalog
from repro.topology.wan import generate_wan

from . import OUT_DIR, stats
from .gauge import Gauge, machine_gauge
from .loadgen import TOP_K, QueryPlan, issue

if TYPE_CHECKING:
    from .tracing import LayerTrace

T = TypeVar("T")

#: fixed per-query latency limit for ``slo_ok_frac``
SLO_LIMIT_MS = 5.0
#: rates of the ladder a traced ``query_steady`` run climbs (queries/s)
LADDER_QPS = (100, 200, 400, 800, 1600)

IpfixColumns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                     np.ndarray]


@dataclass(frozen=True)
class Sizes:
    """Workload dimensions; ``quick`` is the self-test size."""

    quick: bool
    world: Callable[..., ScenarioParams]
    #: times set-up is done in a run (``setup_s`` is their median)
    setup_repeats: int
    # replay: hours replayed per pass, rolling training window (days)
    replay_hours: int
    replay_window: int
    queries_per_boundary: int
    # serving: hours ingested in set-up (``serve_live``'s leave a day
    # boundary in the middle of its live hours), window, rates, cadence
    steady_setup_hours: int
    live_setup_hours: int
    serve_window: int
    steady_qps: float
    live_qps: float
    live_period_s: float
    slice_s: float
    warmup_queries: int
    #: seconds the plan's queries are timed against the in-process oracle
    in_process_s: float
    oracle_batches: int
    restarts: int
    ladder_step_s: float
    #: a rung lasts at least this many queries (a p99 needs 1 000)
    ladder_queries: int
    # withdrawal_churn: training hours, probes and queries per live hour
    churn_train_hours: int
    churn_window: int
    scored_hours: int
    probes_per_hour: int
    queries_per_hour: int
    n_shards: int = 2

    def describe(self) -> Dict[str, object]:
        out = {key: value for key, value in self.__dict__.items()
               if key != "world"}
        out["world"] = self.world.__name__
        return out


FULL = Sizes(
    quick=False, world=ScenarioParams.medium, setup_repeats=3,
    replay_hours=60, replay_window=1, queries_per_boundary=1600,
    steady_setup_hours=28, live_setup_hours=41, serve_window=1,
    steady_qps=200.0, live_qps=100.0,
    live_period_s=1.25, slice_s=1.0, warmup_queries=300,
    in_process_s=3.0,
    oracle_batches=500, restarts=7,
    ladder_step_s=6.0, ladder_queries=1100,
    churn_train_hours=25, churn_window=1, scored_hours=12,
    probes_per_hour=6, queries_per_hour=100,
)

QUICK = Sizes(
    quick=True, world=ScenarioParams.small, setup_repeats=1,
    replay_hours=50, replay_window=1, queries_per_boundary=1000,
    steady_setup_hours=28, live_setup_hours=45, serve_window=1,
    steady_qps=1000.0, live_qps=1000.0,
    live_period_s=0.25, slice_s=0.25, warmup_queries=30,
    in_process_s=0.1,
    oracle_batches=40, restarts=1,
    ladder_step_s=0.3, ladder_queries=30,
    churn_train_hours=25, churn_window=1, scored_hours=2,
    probes_per_hour=2, queries_per_hour=150,
)


#: The synthetic world is the benchmark's *dataset* and is the same on
#: every run; ``--seed`` drives the load put on it (query plans, arrival
#: times, sampled oracle checks).  Measured on this repository: a world
#: per seed moves top-1 accuracy between 0.74 and 0.80 and the work per
#: probe by a third, which would force every bound wide enough to hide a
#: real regression.
WORLD_SEED = 1


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """An independent seeded stream per purpose (plan, samples, checks)."""
    return np.random.default_rng([seed, stream])


def build_world(sizes: Sizes, days: int) -> Scenario:
    """The synthetic world with a horizon of ``days``.  The horizon also
    places the world's link outages, so each workload fixes its own."""
    return Scenario(sizes.world(seed=WORLD_SEED, horizon_days=days))


def digest_hour(aggregator: HourlyAggregator, scenario: Scenario,
                columns: HourColumns) -> List[AggRecord]:
    """One streamed hour through the paper's pipeline stage (§4.2)."""
    return aggregator.aggregate_hour_columns(
        columns.hour, *scenario.ipfix_columns_for(columns)).to_records()


def topology_build_s(scenario: Scenario) -> float:
    """Time ``generate_as_graph`` + ``generate_wan`` for this world again
    (traced runs only: the ``topology`` layer's share of set-up)."""
    params = scenario.params
    begin = time.perf_counter()
    graph = generate_as_graph(MetroCatalog(), params.topology,
                              seed=params.seed)
    generate_wan(graph, params.wan, seed=params.seed)
    return time.perf_counter() - begin


# -- accuracy (paper §5.1.2), vectorised over streamed columns ---------------


def prediction_table(predictions: Sequence[Sequence[Prediction]]
                     ) -> np.ndarray:
    """Served top-k link ids as an (n, TOP_K) array, -1 where absent."""
    table = np.full((len(predictions), TOP_K), -1, dtype=np.int64)
    for row, answer in enumerate(predictions):
        for rank, prediction in enumerate(answer[:TOP_K]):
            table[row, rank] = prediction.link_id
    return table


@dataclass
class AccuracyTally:
    """Byte-weighted top-1 / top-3 accuracy accumulated over hours.

    Same definition as ``repro.core.accuracy.matched_bytes``: bytes that
    arrived on a predicted link count as matched.  Computed with numpy
    over ``HourColumns`` (flow row -> served prediction) because scoring
    a day record by record would cost more than replaying it.
    """

    matched1: float = 0.0
    matched3: float = 0.0
    total: float = 0.0

    def add(self, table: np.ndarray, rows: np.ndarray, links: np.ndarray,
            bytes_: np.ndarray) -> None:
        predicted = table[rows]
        hit1 = predicted[:, 0] == links
        hit3 = (predicted == links[:, None]).any(axis=1)
        self.matched1 += float(bytes_[hit1].sum())
        self.matched3 += float(bytes_[hit3].sum())
        self.total += float(bytes_.sum())

    @property
    def top1(self) -> float:
        return self.matched1 / self.total if self.total else 0.0

    @property
    def top3(self) -> float:
        return self.matched3 / self.total if self.total else 0.0


# -- oracles ------------------------------------------------------------------


def service_config(window_days: int) -> ServiceConfig:
    return ServiceConfig(training_window_days=window_days, prediction_k=TOP_K)


class Restarts(NamedTuple):
    """Result of :func:`restart_in_process`."""

    snapshot_s: float
    times: List[float]        # restore -> first predictions, each repeat
    wrong: int                # restores that served different predictions
    degraded: int             # segments the restores reported degraded
    store_bytes: int


def restart_in_process(service: TipsyService, directory: Path,
                       sample: Sequence[object], repeats: int) -> Restarts:
    """Snapshot once, then ``repeats`` x (restore -> first predictions),
    checking each restore serves what the service served before."""
    expected = service.predict_batch(sample, TOP_K)  # type: ignore[arg-type]
    begin = time.perf_counter()
    store = service.snapshot(directory)
    snapshot_s = time.perf_counter() - begin
    times: List[float] = []
    wrong = degraded = 0
    for _ in range(repeats):
        gc.collect()    # the harness's garbage is not the restart's
        begin = time.perf_counter()
        restored = TipsyService.restore(directory, service.wan)
        served = restored.predict_batch(sample, TOP_K)  # type: ignore[arg-type]
        times.append(time.perf_counter() - begin)
        wrong += served != expected
        report = restored.restore_report
        degraded += len(report.degraded) if report is not None else 0
    return Restarts(snapshot_s, times, wrong, degraded, store.total_bytes())


# -- run bookkeeping ----------------------------------------------------------


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A directory for spooled input and checkpoints, inside the
    checkout, removed when the run ends."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    ``ru_maxrss`` of ``RUSAGE_CHILDREN`` is the maximum over children
    already waited for, so read this after the daemon has shut down.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def fingerprint() -> Dict[str, object]:
    """Where and on what this run happened (goes into every result)."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = -1.0
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "load1_at_start": load1,
    }


@dataclass
class Outcome:
    """Everything one run found out."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    attempted: int = 0
    failed: int = 0
    #: False when the load generator, not the system, limited the run
    valid: bool = True
    notes: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: samples behind a metric (timings), where that means something
    samples: Dict[str, int] = field(default_factory=dict)
    #: end-to-end times and rates as measured, before speed scaling
    raw: Dict[str, float] = field(default_factory=dict)
    params: Dict[str, object] = field(default_factory=dict)
    #: machine slowness while the run lasts (see ``gauge``)
    gauge: Gauge = field(default_factory=machine_gauge)

    def fail(self, what: str, count: int = 1) -> None:
        """Count ``count`` failed operations and say why."""
        if count > 0:
            self.failed += count
            if len(self.notes) < 20:
                self.notes.append(f"FAILED x{count}: {what}")

    def put(self, name: str, value: float, samples: Optional[int] = None
            ) -> None:
        self.end_to_end[name] = float(value)
        if samples is not None:
            self.samples[name] = samples

    def put_scaled(self, name: str, measured: float, scaled: float,
                   samples: Optional[int] = None) -> None:
        """A time or rate at reference speed (see ``gauge``); the
        value as measured goes to ``raw``."""
        self.raw[name] = float(measured)
        self.put(name, scaled, samples)


def settle_heap() -> None:
    """Collect what set-up left behind and move what it built out of the
    collector's sight.  The world, the oracle and the plan are several
    million objects of the harness's; left where they are, the one full
    collection that falls into a 15 s window walks all of them — 200 ms
    in whichever thread happened to allocate last, a live hour's CPU
    five times over or twenty queries late — and it is the harness's
    heap, not the system's, that made it long."""
    gc.collect()
    gc.freeze()


def repeated_setup(out: Outcome, sizes: Sizes,
                   build: Callable[[], T],
                   discard: Callable[[T], None] = lambda built: None) -> T:
    """Set up ``sizes.setup_repeats`` times, keep the last, and report
    ``setup_s`` as the median (one set-up is at the mercy of whatever
    the host does in those seconds).  ``discard`` releases a set-up that
    is not kept (stops its daemon, removes its files)."""
    raw: List[float] = []
    scaled: List[float] = []

    def once() -> T:
        begin = time.perf_counter()
        built = build()
        end = time.perf_counter()
        raw.append(end - begin)
        scaled.append((end - begin) / out.gauge.slowness_between(begin, end))
        return built

    built = once()
    for _ in range(sizes.setup_repeats - 1):
        discard(built)
        built = once()
    out.raw["setup_s"] = stats.median(raw)
    out.put("setup_s", stats.median(scaled), len(scaled))
    settle_heap()
    return built


class Regions:
    """Times the regions that make up a workload's measured wall.

    Each region is one operation (an hour digested, a query, a probe);
    on a traced pass it is also the root span the layer spans nest
    under.  ``wall`` is the sum of the regions — the time between them
    (loading spooled input, scoring) is the harness's, not the system's.
    """

    def __init__(self, trace: Optional["LayerTrace"] = None):
        self.trace = trace
        self.when: List[float] = []     # when each region began
        self.took: List[float] = []
        self.last = 0.0

    @property
    def wall(self) -> float:
        return sum(self.took)

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        span = self.trace.span(name) if self.trace is not None else None
        begin = time.perf_counter()
        try:
            if span is None:
                yield
            else:
                with span:
                    yield
        finally:
            self.last = time.perf_counter() - begin
            self.when.append(begin)
            self.took.append(self.last)


#: plan queries timed in process between two probes of the machine
QUERY_CHUNK = 100


class QueryTimer:
    """Times a plan's queries against an in-process ``TipsyService`` and
    reports ``query_p50_ms`` and ``what_if_p50_ms`` from them.

    The queries take tens of microseconds and come in bursts, so they
    are paired with the machine's speed more closely than the run's
    gauge can be: a gauge of the timer's own is probed before every
    ``QUERY_CHUNK`` queries and after the last, and a query is scaled by
    the probes around its burst alone.  (Scaled by the run's gauge, whose
    probes between a replay pass's hours outnumber those inside its
    bursts, ``replay`` spread 14 % on ``query_p50_ms`` and 24 % on
    ``what_if_p50_ms`` over ten runs in which the serving workloads'
    oracle queries, probed every hundred, spread 9 % and 12 %.)
    """

    def __init__(self) -> None:
        self.gauge = machine_gauge()
        self.when: List[float] = []
        self.took: List[float] = []
        #: which ``what_if`` question a query asked, -1 = ``predict_batch``
        self.question: List[int] = []
        #: a question's first ask of a fresh memo fills it
        self.cold: List[bool] = []

    def run(self, out: Outcome, regions: Regions, target: object,
            plan: QueryPlan, first: int = 0, last: Optional[int] = None,
            question_base: int = 0, fresh_memo: bool = False,
            deadline: Optional[float] = None, what: str = "") -> int:
        """Issue ``plan[first:last]`` to ``target``, one ``bench.query``
        region each, stopping early at the first chunk boundary past
        ``deadline``; returns the index of the next query.  With
        ``fresh_memo`` the first ask of each question is marked cold."""
        last = len(plan) if last is None else last
        asked = set()
        at = first
        while at < last and (deadline is None
                             or time.perf_counter() < deadline):
            self.gauge.probe()
            stop = min(at + QUERY_CHUNK, last)
            for i in range(at, stop):
                out.attempted += 1
                try:
                    with regions.timed("bench.query"):
                        issue(target, plan, i)
                except Exception as error:
                    out.fail(f"{what}query {i}: {error!r}")
                    continue
                payload = int(plan.what_if[i])
                self.when.append(regions.when[-1])
                self.took.append(regions.last)
                self.question.append(
                    question_base + payload if payload >= 0 else -1)
                self.cold.append(fresh_memo and payload >= 0
                                 and payload not in asked)
                asked.add(payload)
            at = stop
        self.gauge.probe()
        return at

    def report(self, out: Outcome) -> np.ndarray:
        """Put ``query_p50_ms`` and, if ``what_if`` questions were asked
        of a warm memo, ``what_if_p50_ms``; returns every query's time
        in ms at reference speed."""
        took_ms = np.array(self.took) * 1e3
        scaled_ms = took_ms / self.gauge.slowness(np.array(self.when))
        question = np.array(self.question)
        predict = question < 0
        out.put_scaled("query_p50_ms", stats.median(took_ms[predict]),
                       stats.median(scaled_ms[predict]), int(predict.sum()))
        warm = ~predict & ~np.array(self.cold)
        if warm.any():
            out.put_scaled(
                "what_if_p50_ms",
                stats.mean_of_group_medians(took_ms[warm], question[warm]),
                stats.mean_of_group_medians(scaled_ms[warm], question[warm]),
                int(warm.sum()))
        return scaled_ms
