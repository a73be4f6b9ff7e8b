"""Benchmark: streaming ingestion, cache retention, churn p95, event time.

Five claims of the streaming subsystem, measured on one synthetic
marketplace and appended to ``BENCH_streaming.json`` (override with
``REPRO_BENCH_STREAMING_ARTIFACT``):

1. **Ingestion** — replaying the simulator's full event stream through
   the :class:`DynamicGraph` overlay plus the feature store sustains at
   least ``MIN_EVENTS_PER_SECOND`` events/sec (no per-event CSR
   rebuilds).
2. **Retention** — under a mutation-heavy serving load, delta-aware
   invalidation retains at least ``MIN_RETENTION_RATIO``x more cache
   entries across mutation rounds than the wholesale-flush baseline
   (the same gateway with ``notify_graph_changed`` subscribed to every
   mutation), with a visibly higher post-warmup hit rate.
3. **Latency** — serving p95 with churn interleaved (delta overlay +
   delta invalidation) stays within ``MAX_P95_RATIO``x of the
   static-graph p95 on the same request stream.
4. **Late arrival** — an out-of-order feed (25% of ticks delayed up to
   ``late_tick_max_delay`` months) ingests at full speed, folds to the
   *same* feature tables as the in-order feed when the watermark covers
   the delays, and a tighter watermark drops stragglers (counted, never
   folded).
5. **Incremental compaction** — at high churn, ``compact()`` with CSR
   patching (``incremental_csr=True``) beats the full-rebuild baseline
   by at least ``MIN_COMPACT_SPEEDUP``x on compaction + re-index time.

Scale knobs: ``REPRO_BENCH_STREAMING_SHOPS`` (default 400) and
``REPRO_BENCH_STREAMING_REQUESTS`` (default 600).  Weights are
untrained — none of the five claims depends on fit quality.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import Gaia, GaiaConfig
from repro.data import MarketplaceConfig
from repro.deploy import ModelRegistry
from repro.graph import ESellerGraph
from repro.serving import GatewayConfig, LoadGenerator, ServingGateway
from repro.streaming import DynamicGraph, MarketplaceSimulator

from conftest import bench_dataset, run_once

pytestmark = pytest.mark.slow

STREAM_SHOPS = int(os.environ.get("REPRO_BENCH_STREAMING_SHOPS", "400"))
STREAM_REQUESTS = int(os.environ.get("REPRO_BENCH_STREAMING_REQUESTS", "600"))
ARTIFACT_PATH = Path(os.environ.get(
    "REPRO_BENCH_STREAMING_ARTIFACT",
    Path(__file__).resolve().parent / "BENCH_streaming.json",
))
MIN_EVENTS_PER_SECOND = 1000.0
MIN_RETENTION_RATIO = 5.0
MAX_P95_RATIO = 1.2
MIN_COMPACT_SPEEDUP = 1.2
MUTATION_ROUNDS = 10
MUTATIONS_PER_ROUND = 6
# Incremental-compaction probe: a dense random graph churned hard so
# the index-rebuild cost dominates the measurement.
COMPACT_NODES = 4000
COMPACT_EDGES = 60_000
COMPACT_ROUNDS = 25
COMPACT_MUTATIONS = 80


def _append_artifact(record: dict) -> None:
    history = []
    if ARTIFACT_PATH.exists():
        try:
            history = json.loads(ARTIFACT_PATH.read_text())
        except (ValueError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    ARTIFACT_PATH.write_text(json.dumps(history, indent=2) + "\n")


def _world():
    market, dataset = bench_dataset(STREAM_SHOPS, seed=13,
                                    config_factory=MarketplaceConfig)
    config = GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
        channels=8,
        num_scales=2,
        num_layers=1,
    )

    def factory():
        return Gaia(config, seed=0)

    registry = ModelRegistry()
    registry.publish(factory(), trained_at_month=market.config.num_months - 3)
    simulator = MarketplaceSimulator(
        market, start_month=market.config.num_months - 8,
        edge_churn_per_month=4, seed=3,
    )
    return market, dataset, factory, registry, simulator


def _measure_ingestion(simulator) -> dict:
    dyn = simulator.initial_dynamic_graph()
    store = simulator.initial_store()
    log = simulator.event_log()
    started = time.perf_counter()
    for event in log:
        dyn.apply(event)
        store.apply(event)
    elapsed = max(time.perf_counter() - started, 1e-12)
    # Each event hits both consumers; count log entries, not applications.
    return {
        "events": len(log),
        "event_counts": log.counts(),
        "elapsed_seconds": elapsed,
        "events_per_second": len(log) / elapsed,
        "compactions": dyn.compactions,
    }


def _mutation_rounds(rng, dyn, working_set, rounds, per_round):
    """Yield per-round synthetic churn inside the served neighbourhood."""
    added = []
    for _ in range(rounds):
        mutations = []
        for _ in range(per_round):
            if added and rng.random() < 0.4:
                mutations.append(("retire", added.pop(0)))
            else:
                pair = (int(rng.choice(working_set)),
                        int(rng.choice(working_set)))
                added.append(pair)
                mutations.append(("add", pair))
        yield mutations


def _apply_mutations(dyn, mutations):
    for kind, (src, dst) in mutations:
        if kind == "add":
            dyn.add_edge(src, dst, 0)
        else:
            dyn.retire_edge(src, dst, 0)


def _measure_retention(factory, dataset, registry, simulator) -> dict:
    """Same shared stream + mutations against delta vs full-flush caches."""
    results = {}
    for mode, delta in (("delta", True), ("flush", False)):
        dyn = simulator.initial_dynamic_graph()
        gateway = ServingGateway(
            factory, dataset, registry,
            GatewayConfig(max_batch_size=32),
        )
        gateway.attach_stream(dyn)
        if not delta:
            dyn.subscribe(lambda touched: gateway.notify_graph_changed())
        generator = LoadGenerator(num_shops=dataset.test.num_shops, seed=7)
        working = generator.generate(
            "repeating", num_requests=STREAM_REQUESTS,
            working_set=max(STREAM_SHOPS // 3, 1),
        )
        working_set = np.unique(working)
        rng = np.random.default_rng(11)
        chunks = np.array_split(working, MUTATION_ROUNDS)
        retained = 0
        for chunk, mutations in zip(
            chunks,
            _mutation_rounds(rng, dyn, working_set,
                             MUTATION_ROUNDS, MUTATIONS_PER_ROUND),
        ):
            gateway.predict_many(chunk)
            _apply_mutations(dyn, mutations)
            retained += len(gateway.subgraph_cache) + len(gateway.result_cache)
        report = gateway.metrics_report()
        results[mode] = {
            "retained_entries": retained,
            "result_hits": report["counters"].get("cache_hits", 0.0),
            "result_misses": report["counters"].get("cache_misses", 0.0),
            "subgraph_hits": report["counters"].get("subgraph_cache_hits", 0.0),
            "cache_hit_rate": report["cache_hit_rate"],
        }
        gateway.close()
    results["retention_ratio"] = (
        results["delta"]["retained_entries"]
        / max(results["flush"]["retained_entries"], 1)
    )
    return results


def _measure_late_arrival(market, start_month) -> dict:
    """Out-of-order feed: full-speed ingestion, event-time fold equality."""
    in_order = MarketplaceSimulator(market, start_month=start_month,
                                    edge_churn_per_month=4, seed=3)
    late = MarketplaceSimulator(market, start_month=start_month,
                                edge_churn_per_month=4,
                                late_tick_fraction=0.25,
                                late_tick_max_delay=2, seed=3)
    log = late.event_log()
    # Watermark covering the max delay: nothing drops, fold is exact.
    dyn = late.initial_dynamic_graph()
    store = late.initial_store(watermark=2)
    started = time.perf_counter()
    for event in log:
        dyn.apply(event)
        store.apply(event)
    elapsed = max(time.perf_counter() - started, 1e-12)
    reference = in_order.initial_store()
    reference.apply_events(in_order.event_log())
    fold_matches = bool(
        np.array_equal(store.gmv, reference.gmv)
        and np.array_equal(store.orders, reference.orders)
        and np.array_equal(store.customers, reference.customers)
    )
    # Tight watermark: stragglers drop (counted, never folded).
    tight = late.initial_store(watermark=0)
    tight.apply_events(log)
    return {
        "events": len(log),
        "elapsed_seconds": elapsed,
        "events_per_second": len(log) / elapsed,
        "late_ticks_injected": late.late_ticks_injected,
        "late_ticks_accepted": store.late_ticks_accepted,
        "ticks_dropped_watermark_2": store.ticks_dropped,
        "ticks_dropped_watermark_0": tight.ticks_dropped,
        "fold_matches_in_order": fold_matches,
    }


def _measure_compaction() -> dict:
    """Incremental CSR patching vs full rebuild at high churn.

    Identical mutation schedules (same seed) run against both modes;
    only ``compact()`` plus the follow-up re-index is timed, so the
    comparison isolates exactly the cost the patch removes.
    """
    results = {}
    for mode, incremental in (("incremental", True), ("full", False)):
        rng = np.random.default_rng(41)
        base = ESellerGraph(
            COMPACT_NODES,
            rng.integers(0, COMPACT_NODES, size=COMPACT_EDGES),
            rng.integers(0, COMPACT_NODES, size=COMPACT_EDGES),
            rng.integers(0, 3, size=COMPACT_EDGES),
        )
        dyn = DynamicGraph(base, compact_threshold=None,
                           incremental_csr=incremental)
        base.out_csr()
        base.in_csr()
        elapsed = 0.0
        for _ in range(COMPACT_ROUNDS):
            added = []
            for _ in range(COMPACT_MUTATIONS):
                pair = (int(rng.integers(0, COMPACT_NODES)),
                        int(rng.integers(0, COMPACT_NODES)))
                dyn.add_edge(pair[0], pair[1], 0)
                added.append(pair)
            for src, dst in added[::2]:
                dyn.retire_edge(src, dst, 0)
            started = time.perf_counter()
            graph = dyn.compact()
            graph.out_csr()
            graph.in_csr()
            elapsed += time.perf_counter() - started
        results[mode] = {
            "seconds": elapsed,
            "seconds_per_compaction": elapsed / COMPACT_ROUNDS,
        }
    results["nodes"] = COMPACT_NODES
    results["edges"] = COMPACT_EDGES
    results["rounds"] = COMPACT_ROUNDS
    results["mutations_per_round"] = COMPACT_MUTATIONS
    results["speedup"] = (
        results["full"]["seconds"]
        / max(results["incremental"]["seconds"], 1e-12)
    )
    return results


def _percentiles(latencies) -> dict:
    p50, p95, p99 = np.percentile(np.asarray(latencies), [50, 95, 99])
    return {"p50_ms": p50 * 1e3, "p95_ms": p95 * 1e3, "p99_ms": p99 * 1e3}


def _measure_churn_p95(factory, dataset, registry) -> dict:
    """Compute-path p95: tiny caches force extraction + forward on every
    request, so the comparison isolates the dynamic-overlay overhead.
    Both gateways serve the same full topology — the churn side wraps it
    in a ``DynamicGraph`` and mutates it between request chunks."""
    generator = LoadGenerator(num_shops=dataset.test.num_shops, seed=19)
    stream = generator.generate("uniform", num_requests=STREAM_REQUESTS)
    chunks = np.array_split(stream, MUTATION_ROUNDS)
    config = dict(max_batch_size=32, subgraph_cache_size=1,
                  result_cache_size=1)

    static_gateway = ServingGateway(factory, dataset, registry,
                                    GatewayConfig(**config))
    static_latencies = [
        r.latency_seconds
        for chunk in chunks for r in static_gateway.predict_many(chunk)
    ]
    static_gateway.close()

    dyn = DynamicGraph(dataset.graph)
    churn_gateway = ServingGateway(factory, dataset, registry,
                                   GatewayConfig(**config))
    churn_gateway.attach_stream(dyn)
    rng = np.random.default_rng(29)
    working_set = np.arange(dataset.test.num_shops)
    churn_latencies = []
    for chunk, mutations in zip(
        chunks,
        _mutation_rounds(rng, dyn, working_set,
                         MUTATION_ROUNDS, MUTATIONS_PER_ROUND),
    ):
        _apply_mutations(dyn, mutations)
        churn_latencies.extend(
            r.latency_seconds for r in churn_gateway.predict_many(chunk)
        )
    churn_gateway.close()

    static = _percentiles(static_latencies)
    churn = _percentiles(churn_latencies)
    return {
        "static": static,
        "churn": churn,
        "p95_ratio": churn["p95_ms"] / max(static["p95_ms"], 1e-9),
    }


def test_streaming_marketplace(benchmark):
    market, dataset, factory, registry, simulator = _world()

    def run():
        ingestion = _measure_ingestion(simulator)
        retention = _measure_retention(factory, dataset, registry, simulator)
        latency = _measure_churn_p95(factory, dataset, registry)
        late = _measure_late_arrival(market, simulator.start_month)
        compaction = _measure_compaction()
        return ingestion, retention, latency, late, compaction

    ingestion, retention, latency, late, compaction = run_once(benchmark, run)

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "shops": STREAM_SHOPS,
        "requests": STREAM_REQUESTS,
        "mutation_rounds": MUTATION_ROUNDS,
        "mutations_per_round": MUTATIONS_PER_ROUND,
        "ingestion": ingestion,
        "retention": retention,
        "latency": latency,
        "late_arrival": late,
        "compaction": compaction,
    }
    _append_artifact(record)

    print()
    print(f"ingestion  {ingestion['events_per_second']:10.0f} events/s "
          f"({ingestion['events']} events, "
          f"{ingestion['compactions']} compactions)")
    print(f"retention  delta {retention['delta']['retained_entries']} vs "
          f"flush {retention['flush']['retained_entries']} entries "
          f"({retention['retention_ratio']:.1f}x), hit rate "
          f"{retention['delta']['cache_hit_rate']:.2%} vs "
          f"{retention['flush']['cache_hit_rate']:.2%}")
    print(f"p95        churn {latency['churn']['p95_ms']:.2f} ms vs "
          f"static {latency['static']['p95_ms']:.2f} ms "
          f"({latency['p95_ratio']:.2f}x)")
    print(f"late       {late['events_per_second']:10.0f} events/s, "
          f"{late['late_ticks_injected']} delayed ticks, fold match: "
          f"{late['fold_matches_in_order']}, tight-watermark drops: "
          f"{late['ticks_dropped_watermark_0']}")
    print(f"compaction incremental "
          f"{compaction['incremental']['seconds_per_compaction'] * 1e3:.2f} ms "
          f"vs full {compaction['full']['seconds_per_compaction'] * 1e3:.2f} ms "
          f"({compaction['speedup']:.2f}x, {COMPACT_EDGES} edges)")

    assert ingestion["events_per_second"] >= MIN_EVENTS_PER_SECOND, (
        f"ingestion only {ingestion['events_per_second']:.0f} events/s; "
        f"need >= {MIN_EVENTS_PER_SECOND:.0f}"
    )
    assert retention["retention_ratio"] >= MIN_RETENTION_RATIO, (
        f"delta invalidation retained only "
        f"{retention['retention_ratio']:.1f}x the full-flush baseline; "
        f"need >= {MIN_RETENTION_RATIO}x"
    )
    assert retention["delta"]["cache_hit_rate"] >= \
        retention["flush"]["cache_hit_rate"], (
            "delta invalidation should not lower the end-to-end hit rate"
        )
    assert latency["p95_ratio"] <= MAX_P95_RATIO, (
        f"serving p95 under churn is {latency['p95_ratio']:.2f}x the "
        f"static-graph p95; budget is {MAX_P95_RATIO}x"
    )
    assert late["fold_matches_in_order"], (
        "out-of-order feed must fold to the in-order tables when the "
        "watermark covers the max delay"
    )
    assert late["late_ticks_injected"] > 0
    assert late["ticks_dropped_watermark_2"] == 0
    assert late["ticks_dropped_watermark_0"] > 0, (
        "a zero watermark must drop delayed stragglers"
    )
    assert late["events_per_second"] >= MIN_EVENTS_PER_SECOND, (
        f"late-arrival ingestion only {late['events_per_second']:.0f} "
        f"events/s; need >= {MIN_EVENTS_PER_SECOND:.0f}"
    )
    assert compaction["speedup"] >= MIN_COMPACT_SPEEDUP, (
        f"incremental compaction only {compaction['speedup']:.2f}x the "
        f"full rebuild; need >= {MIN_COMPACT_SPEEDUP}x"
    )
