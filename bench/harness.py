"""Shared plumbing of the repo benchmark.

Everything the four workloads have in common lives here: the world
builder (marketplace, dataset, event stream, model registry), the
stable proportional merge that spreads topology events evenly through
the stream, repeated set-up timing, percentile helpers, the span
aggregator behind the traced run, and the environment stamp written
beside every result.

The harness measures the program from outside: it calls public
functions of ``repro`` and wraps each call in a ``bench.<layer>.<call>``
span on the process tracer.  With tracing off that tracer is the
``NULL_TRACER`` and a span costs one no-op call; the traced run
installs a real :class:`repro.obs.tracing.Tracer` and the same code
records the tree.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import Gaia, GaiaConfig, build_dataset, build_marketplace
from repro.data import MarketplaceConfig
from repro.deploy import ModelRegistry
from repro.obs.tracing import Span, Tracer
from repro.streaming import MarketplaceSimulator
from repro.streaming.events import SalesTick

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: The retroactive per-request span the gateway records when a batch
#: drains.  It overlaps real work of other requests, so it is reported
#: as waiting and never added to a busy-time sum.
QUEUE_WAIT = "gateway.queue_wait"

clock = time.perf_counter


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def pct(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (0.0 for an empty sample)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    """Median of ``values`` (0.0 for an empty sample)."""
    return pct(values, 50.0)


def undisturbed(values: Sequence[float], better: str) -> float:
    """The quartile of ``values`` on the good side.

    For repeated samples of one operation on a shared box, where a noisy
    neighbour can only ever make a sample worse: the lower quartile of
    times (``better="lower"``), the upper quartile of rates.  It stays
    put while up to three quarters of the samples are disturbed, which a
    median does not, and unlike a minimum it is not one lucky sample.
    """
    return pct(values, 25.0 if better == "lower" else 75.0)


def sliced_latency(seconds: Sequence[float], size: int):
    """Undisturbed p50, p95 and rate of a run of call durations.

    The calls are cut into consecutive slices of ``size``; each slice
    gives its own p50, p95 and calls per second, and the quartile on the
    good side across slices is returned as ``(p50_s, p95_s, per_s)``.
    A slow spell of the host then spoils the slices it covers instead of
    the whole run's p95.
    """
    seconds = np.asarray(seconds, dtype=np.float64)
    count = max(len(seconds) // size, 1)
    parts = [seconds[i * size:(i + 1) * size] for i in range(count)]
    return (
        undisturbed([pct(part, 50) for part in parts], "lower"),
        undisturbed([pct(part, 95) for part in parts], "lower"),
        undisturbed([ratio(len(part), part.sum()) for part in parts],
                    "higher"),
    )


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when the denominator is 0."""
    return float(numerator) / float(denominator) if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# the world every workload is built on
# ----------------------------------------------------------------------
@dataclass
class World:
    """Generated inputs of one run; the program sees only these."""

    seed: int
    market: object
    dataset: object
    gaia_config: GaiaConfig
    #: ``None`` for workloads without a stream.
    simulator: Optional[MarketplaceSimulator] = None
    #: The simulator stream in proportional-merge order.
    events: List[object] = field(default_factory=list)
    registry: Optional[ModelRegistry] = None
    #: Seconds spent in each builder, for the ``repro.data`` layer.
    timings: Dict[str, float] = field(default_factory=dict)

    def model(self, seed_offset: int = 0) -> Gaia:
        """A fresh Gaia on this world's config (weights from the seed)."""
        return Gaia(self.gaia_config, seed=self.seed + seed_offset)

    @property
    def deploy_month(self) -> int:
        return self.market.config.num_months - 3


def proportional_merge(events: Sequence[object]) -> List[object]:
    """Interleave topology events evenly among the sales ticks.

    The simulator emits each month's topology events in one burst ahead
    of that month's ticks.  Replayed at a fixed rate that burst would
    put every invalidation of a month into a few seconds of the window.
    The merge keeps each sub-stream in its own order and always emits
    from the one that is furthest behind its proportional share, so a
    topology event arrives about every ``len(events) / len(topology)``
    events.  Graph fold and feature fold each read only one of the two
    sub-streams (plus arrivals, which stay ahead of their own edges), so
    the merged order folds array-identical to the simulator order;
    ``ingest_recover`` checks that on every run.
    """
    topology = [e for e in events if not isinstance(e, SalesTick)]
    ticks = [e for e in events if isinstance(e, SalesTick)]
    merged: List[object] = []
    i = j = 0
    while i < len(topology) or j < len(ticks):
        if j >= len(ticks) or (i < len(topology)
                               and i * len(ticks) <= j * len(topology)):
            merged.append(topology[i])
            i += 1
        else:
            merged.append(ticks[j])
            j += 1
    return merged


#: The marketplace itself is a fixed data set: ``--seed`` drives the
#: traffic on it (arrival times, shops asked for, edge churn, late
#: ticks, model weights, sampled shops), not the shape of the graph.
#: Per-request cost depends on ego sizes, so a world that changed with
#: the seed would add a spread between seeds that no code change causes.
WORLD_SEED = 7


def build_world(num_shops: int, seed: int, *, stream: bool,
                gaia_kwargs: Optional[dict] = None,
                dataset_kwargs: Optional[dict] = None) -> World:
    """Generate a marketplace, its dataset and (optionally) its stream.

    The marketplace comes from :data:`WORLD_SEED`; ``seed + 1`` drives
    the simulator's edge churn and late ticks.  With ``stream`` the
    simulator uses the settings of the repo's recovery benchmark (8
    streaming months, 4 churned edges a month, a quarter of the ticks
    late by up to 2 months).
    """
    timings: Dict[str, float] = {}
    started = clock()
    market = build_marketplace(MarketplaceConfig(num_shops=num_shops,
                                                 seed=WORLD_SEED))
    timings["build_marketplace_s"] = clock() - started
    started = clock()
    dataset = build_dataset(market, **(dataset_kwargs or {}))
    timings["build_dataset_s"] = clock() - started
    gaia_config = GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
        **(gaia_kwargs or {}),
    )
    world = World(seed=seed, market=market, dataset=dataset,
                  gaia_config=gaia_config, timings=timings)
    if stream:
        world.simulator = MarketplaceSimulator(
            market, start_month=market.config.num_months - 8,
            edge_churn_per_month=4, late_tick_fraction=0.25,
            late_tick_max_delay=2, seed=seed + 1,
        )
        world.events = proportional_merge([
            event
            for month in world.simulator.streaming_months
            for event in world.simulator.events_for_month(month)
        ])
    return world


def publish_initial(world: World) -> None:
    """Give the world a registry holding one published model."""
    world.registry = ModelRegistry()
    world.registry.publish(world.model(3),
                           trained_at_month=world.deploy_month)


def timed_setups(build: Callable[[], object], repeats: int,
                 import_s: Sequence[float]):
    """Build the run's inputs ``repeats`` times; keep the last.

    Returns ``(built, setup_s)``.  Set-up is the imports plus one build;
    both are sampled several times (``import_s`` holds the import time
    of this process and of fresh interpreters) and the undisturbed
    quartile of each is added up.  A single import or build of a few
    hundred milliseconds moves by half with the state of the host.
    """
    durations = []
    built = None
    for _ in range(max(repeats, 1)):
        built = None
        gc.collect()
        started = clock()
        built = build()
        durations.append(clock() - started)
    return built, (undisturbed(import_s, "lower")
                   + undisturbed(durations, "lower"))


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class SpanAggregator:
    """Fold completed span trees into per-name totals as they finish.

    ``Tracer(max_roots=4096)`` silently drops the oldest trees and a
    20 s serve window completes tens of thousands of them, so nothing is
    read back from ``tracer.roots``: this object is the tracer's
    ``on_root`` hook and keeps three numbers per span name (calls, total
    seconds, self seconds).  Self time is a span's duration minus the
    part covered by its children.  ``gateway.queue_wait`` spans are kept
    apart as samples of waiting: they are retroactive, overlap the work
    of other requests and must not count as busy time or be subtracted
    from their parent.
    """

    #: Whole trees kept for the trace file, to show the nesting.
    KEEP_ROOTS = 32

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self.queue_waits: List[float] = []
        #: Seconds covered by root spans (the coverage numerator).
        self.root_seconds = 0.0
        self.sample_roots: List[dict] = []

    def __call__(self, root: Span) -> None:
        if root.name == QUEUE_WAIT:
            self.queue_waits.append(root.duration)
            return
        self.root_seconds += root.end - root.start
        self._fold(root)
        # Keep a few whole trees that show nesting (not bare leaves).
        if root.children and len(self.sample_roots) < self.KEEP_ROOTS:
            self.sample_roots.append(_span_to_dict(root))

    def _fold(self, span: Span) -> None:
        # Runs once per span of the traced run, after the span's end was
        # stamped, so its own cost is time no span covers: kept lean.
        duration = span.end - span.start
        covered = 0.0
        for child in span.children:
            if child.name == QUEUE_WAIT:
                self.queue_waits.append(child.end - child.start)
                continue
            self._fold(child)
            covered += child.end - child.start
        row = self.stats.get(span.name)
        if row is None:
            row = self.stats[span.name] = [0.0, 0.0, 0.0]
        row[0] += 1.0
        row[1] += duration
        row[2] += duration - covered

    def count(self, name: str) -> float:
        return self.stats.get(name, (0.0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        """Seconds inside spans named ``name``, children included."""
        return self.stats.get(name, (0.0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        """Seconds inside spans named ``name``, children excluded."""
        return self.stats.get(name, (0.0, 0.0, 0.0))[2]

    def mean_ms(self, name: str, self_only: bool = False) -> float:
        seconds = self.self_time(name) if self_only else self.total(name)
        return ratio(seconds * 1e3, self.count(name))

    def table(self) -> Dict[str, Dict[str, float]]:
        """Per-name ``calls / total_ms / self_ms``, busiest first."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        return {
            name: {"calls": int(row[0]), "total_ms": row[1] * 1e3,
                   "self_ms": row[2] * 1e3}
            for name, row in rows
        }

    def missing(self, names: Sequence[str]) -> List[str]:
        """The names in ``names`` that never completed a span."""
        seen = set(self.stats)
        if self.queue_waits:
            seen.add(QUEUE_WAIT)
        return [name for name in names if name not in seen]


def _span_to_dict(span: Span) -> dict:
    return {
        "name": span.name,
        "start_s": span.start,
        "duration_ms": span.duration * 1e3,
        "children": [_span_to_dict(child) for child in span.children],
    }


def make_tracer(aggregator: SpanAggregator) -> Tracer:
    """A wall-clock tracer that feeds ``aggregator`` and retains nothing."""
    tracer = Tracer(clock=clock, max_roots=1)
    tracer.on_root(aggregator)
    return tracer


def write_trace(workload: str, aggregator: SpanAggregator, window_s: float,
                idle_s: float, extra: Optional[dict] = None) -> Path:
    """Write the traced run's aggregated spans to ``bench/out``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload}.json"
    payload = {
        "workload": workload,
        "window_s": window_s,
        "idle_s": idle_s,
        "root_span_s": aggregator.root_seconds,
        "queue_wait": {
            "count": len(aggregator.queue_waits),
            "p50_ms": pct(aggregator.queue_waits, 50) * 1e3,
            "p95_ms": pct(aggregator.queue_waits, 95) * 1e3,
        },
        "spans": aggregator.table(),
        "sample_roots": aggregator.sample_roots,
    }
    payload.update(extra or {})
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------
def _commit() -> str:
    """HEAD of the checkout, ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> Dict[str, object]:
    """Where a result was taken: commit, cores, interpreter, BLAS."""
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "platform": platform.platform(),
    }
