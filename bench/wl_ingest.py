"""Workload ``ingest_recover``: the write path and the restart path.

A closed loop of whole cycles.  Each cycle ingests the full event
stream through the journal, both folds and the checkpoint cadence with
no gateway attached; then restarts from what that wrote several times
(reopen the journal, load the newest checkpoint, replay the tail, attach
a cold gateway, answer the first forecasts); then sweeps every shop once
through a recovered gateway, the paper's monthly bulk forecast through
the synchronous API; then recovers once more without a checkpoint, which
replays the whole journal.  The same journal is written by the first
phase and read by the others, so a change that makes appends cheaper by
making decode or replay dearer shows in one run.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.obs import tracing as obs_tracing
from repro.serving import GatewayConfig, ServingGateway
from repro.streaming import EventLog
from repro.streaming.durable import Checkpointer, DurableEventLog, recover
from repro.streaming.events import SalesTick

import harness
from harness import clock

#: 8000 shops in the issue; halved so that three to four whole cycles
#: fit the run length the driver's time cap allows (README "sizing").
NUM_SHOPS = 4000
SEGMENT_EVENTS = 4096
#: Two snapshots behind the first (``Checkpointer`` writes one at its
#: first ``observe``), leaving a replay tail of a few thousand events.
CHECKPOINT_EVERY = 16384
#: Ingest rate is sampled per chunk of this many events.
CHUNK_EVENTS = 1024
MAX_BATCH = 32
#: Sweep calls per slice of the latency statistics (about 0.4 s).
SLICE_CALLS = 25
FIRST_FORECASTS = 256
RESTARTS_PER_CYCLE = 5

SPANS = ("gateway.serve_batch", "gateway.extract", "gateway.batch_assembly",
         "gateway.forward")


@dataclass
class Samples:
    """Everything the cycles measured, one list per quantity."""

    chunk_rates: List[float] = field(default_factory=list)
    pass_rates: List[float] = field(default_factory=list)
    checkpoint_s: List[float] = field(default_factory=list)
    restart_s: List[float] = field(default_factory=list)
    reopen_s: List[float] = field(default_factory=list)
    recover_s: List[float] = field(default_factory=list)
    call_s: List[float] = field(default_factory=list)
    sweep_rates: List[float] = field(default_factory=list)
    replay_rates: List[float] = field(default_factory=list)
    #: Counts of the last ingest pass (they repeat exactly per pass).
    stats: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def _cold_gateway(world) -> ServingGateway:
    # The legacy gateway also flushes when the oldest parked request has
    # waited ``max_wait``, so a slow moment (or the tracer) would split a
    # batch by the clock.  A stitched forward is bitwise repeatable only
    # for the same batch composition, and the recovered gateway is
    # compared bitwise with its never-crashed twin: flush on size alone.
    return ServingGateway(
        model_factory=lambda: world.model(0), dataset=world.dataset,
        registry=world.registry,
        config=GatewayConfig(max_batch_size=MAX_BATCH, max_wait=3600.0,
                             max_staleness_months=1),
    )


def _fresh_folds(world):
    return (world.simulator.initial_dynamic_graph(),
            world.simulator.initial_store(watermark=2))


def _fold(world, events):
    dyn, store = _fresh_folds(world)
    for event in events:
        dyn.apply(event)
        store.apply(event)
    return dyn, store


def _same_fold(dyn_a, store_a, dyn_b, store_b) -> bool:
    """Whether two folds hold array-identical graphs and feature tables."""
    graph_a, graph_b = dyn_a.as_graph(), dyn_b.as_graph()
    state_a, state_b = store_a.state_dict(), store_b.state_dict()
    return (
        all(np.array_equal(getattr(graph_a, name), getattr(graph_b, name))
            for name in ("src", "dst", "edge_types"))
        and state_a.keys() == state_b.keys()
        and all(np.array_equal(state_a[key], state_b[key])
                for key in state_a)
    )


def _ingest(world, workdir, samples: Samples):
    """Journal and fold the whole stream; returns the live ``(dyn, store)``.

    Write-ahead order per event: journal, graph fold, feature fold, then
    the checkpoint cadence.
    """
    span = obs_tracing.span
    shutil.rmtree(workdir, ignore_errors=True)
    durable = DurableEventLog(workdir / "journal",
                              segment_events=SEGMENT_EVENTS)
    log = EventLog(durable=durable)
    dyn, store = _fresh_folds(world)
    checkpointer = Checkpointer(workdir / "checkpoints", CHECKPOINT_EVERY,
                                dynamic_graph=dyn, store=store)
    started = chunk_started = clock()
    for offset, event in enumerate(world.events, start=1):
        with span("bench.durable.append"):
            log.append(event)
        with span("bench.streaming.dyn_apply"):
            dyn.apply(event)
        with span("bench.streaming.store_apply"):
            store.apply(event)
        observed = clock()
        with span("bench.durable.observe"):
            written = checkpointer.observe(durable.high_water)
        if written is not None:
            samples.checkpoint_s.append(clock() - observed)
        if offset % CHUNK_EVENTS == 0:
            now = clock()
            samples.chunk_rates.append(CHUNK_EVENTS / (now - chunk_started))
            chunk_started = now
    samples.pass_rates.append(len(world.events) / (clock() - started))
    durable.close()
    report = store.freshness_report()
    samples.stats = {
        "journal_bytes": float(sum(
            path.stat().st_size
            for path in (workdir / "journal").iterdir())),
        "checkpoints": float(checkpointer.snapshots_written),
        "compactions": float(dyn.compactions),
        "late_ticks_accepted": float(report["late_ticks_accepted"]),
        "ticks_dropped": float(report["ticks_dropped"]),
    }
    samples.attempted += len(world.events)
    return dyn, store


def _recover(world, workdir, checkpoints: str):
    """Reopen the journal and recover; returns ``(journal, state, parts)``."""
    started = clock()
    with obs_tracing.span("bench.durable.reopen"):
        journal = DurableEventLog(workdir / "journal",
                                  segment_events=SEGMENT_EVENTS)
    reopened = clock()
    with obs_tracing.span("bench.durable.recover"):
        state = recover(
            journal, workdir / checkpoints,
            base_graph=world.simulator.initial_graph(),
            store_factory=lambda: world.simulator.initial_store(watermark=2),
        )
    return journal, state, (reopened - started, clock() - reopened)


def _restart(world, workdir, shops, samples: Samples):
    """One restart to first answers; returns ``(gateway, state, responses)``."""
    started = clock()
    journal, state, (reopen, replay) = _recover(world, workdir, "checkpoints")
    gateway = _cold_gateway(world)
    gateway.attach_stream(state.dynamic_graph, store=state.store)
    with obs_tracing.span("bench.serving.predict_many"):
        responses = gateway.predict_many(shops)
    samples.restart_s.append(clock() - started)
    journal.close()
    samples.reopen_s.append(reopen)
    samples.recover_s.append(replay)
    samples.stats["tail_events"] = float(state.replayed_events)
    samples.attempted += 1
    return gateway, state, responses


def _cycle(world, workdir, first_shops, sweep, restarts: int,
           samples: Samples) -> None:
    """One ingest, ``restarts`` restarts, one sweep, one full replay."""
    dyn, store = _ingest(world, workdir, samples)

    gateway = None
    for _ in range(restarts):
        if gateway is not None:
            gateway.close()
        gateway, state, first = _restart(world, workdir, first_shops, samples)

    # Never-crashed twin: a cold gateway on the fold that did the ingest.
    twin = _cold_gateway(world)
    twin.attach_stream(dyn, store=store)
    expected = twin.predict_many(first_shops)
    twin.close()
    samples.attempted += len(first_shops)
    differing = sum(1 for got, want in zip(first, expected)
                    if not np.array_equal(got.forecast, want.forecast))
    if differing or not _same_fold(dyn, store, state.dynamic_graph,
                                   state.store):
        samples.failed += max(differing, 1)
        samples.problems.append(
            f"recovered state differs from the never-crashed fold "
            f"({differing} of {len(first_shops)} forecasts)")

    # The first forecasts warmed the caches for 256 shops only; flush
    # them so the sweep is cold for every shop.
    gateway.notify_graph_changed()
    started = clock()
    for chunk in sweep:
        call_started = clock()
        with obs_tracing.span("bench.serving.predict_many"):
            gateway.predict_many(chunk)
        samples.call_s.append(clock() - call_started)
    samples.sweep_rates.append(sweep.size / (clock() - started))
    samples.attempted += sweep.size
    gateway.close()

    journal, state, (_, replay) = _recover(world, workdir, "no-checkpoints")
    journal.close()
    samples.replay_rates.append(state.replayed_events / replay)
    if state.replayed_events != len(world.events):
        samples.failed += 1
        samples.problems.append(
            f"full replay saw {state.replayed_events} of "
            f"{len(world.events)} events")


def run(workload: str, seed: int, seconds: float, traced: bool, quick: bool,
        import_s: Sequence[float]) -> dict:
    num_shops = NUM_SHOPS // 4 if quick else NUM_SHOPS
    restarts = 2 if quick else RESTARTS_PER_CYCLE
    workdir = harness.OUT_DIR / f"tmp-{workload}-{seed}-{int(traced)}"

    def build():
        world = harness.build_world(
            num_shops, seed, stream=True,
            gaia_kwargs={"channels": 8, "num_scales": 2, "num_layers": 1},
        )
        harness.publish_initial(world)
        return world

    world, setup_s = harness.timed_setups(build, 1 if quick else 5, import_s)
    events = world.events
    rng = np.random.default_rng(seed + 5)
    first_shops = rng.permutation(num_shops)[:FIRST_FORECASTS]
    sweep = rng.permutation(num_shops)
    sweep = sweep[: len(sweep) // MAX_BATCH * MAX_BATCH].reshape(-1, MAX_BATCH)

    samples = Samples()
    aggregator = harness.SpanAggregator()
    untraced_rate = 0.0
    try:
        if traced:
            # Untraced reference for the tracing overhead: one ingest
            # pass before the tracer goes in.
            reference = Samples()
            _ingest(world, workdir, reference)
            untraced_rate = harness.undisturbed(reference.chunk_rates,
                                                "higher")
            obs_tracing.set_tracer(harness.make_tracer(aggregator))
        window_started = clock()
        longest = 0.0
        while True:
            started = clock()
            _cycle(world, workdir, first_shops, sweep, restarts, samples)
            longest = max(longest, clock() - started)
            # Stop when the next cycle would overshoot by more than it
            # undershoots: the window is --seconds give or take half one.
            if clock() - window_started + longest / 2.0 > seconds:
                break
        window_s = clock() - window_started
    finally:
        obs_tracing.set_tracer(obs_tracing.NULL_TRACER)
        shutil.rmtree(workdir, ignore_errors=True)

    # The merged order must fold to what the simulator's own order folds
    # to, or the stream the workloads replay is not the generator's.
    samples.attempted += 1
    if not _same_fold(*_fold(world, events), *_fold(world, (
            event for month in world.simulator.streaming_months
            for event in world.simulator.events_for_month(month)))):
        samples.failed += 1
        samples.problems.append("merged event order folds differently from "
                                "the simulator order")

    stats = samples.stats
    p50_s, p95_s, _ = harness.sliced_latency(samples.call_s, SLICE_CALLS)
    e2e = {
        "setup_s": setup_s,
        "latency_p50_ms": p50_s * 1e3,
        "throughput_per_s": harness.undisturbed(samples.chunk_rates, "higher"),
        "cold_start_s": harness.undisturbed(samples.restart_s, "lower"),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    topology = sum(1 for event in events if not isinstance(event, SalesTick))
    layers = {
        "data.build_marketplace_s": world.timings["build_marketplace_s"],
        "data.build_dataset_s": world.timings["build_dataset_s"],
        "latency_p95_ms": p95_s * 1e3,
        "durable.append_count": float(len(events)),
        "durable.journal_bytes": stats["journal_bytes"],
        "durable.checkpoint_count": stats["checkpoints"],
        "durable.checkpoint_write_ms": harness.median(
            samples.checkpoint_s) * 1e3,
        "durable.reopen_ms": harness.median(samples.reopen_s) * 1e3,
        "durable.recover_ms": harness.median(samples.recover_s) * 1e3,
        "durable.tail_events": stats["tail_events"],
        "durable.replay_events_per_s": harness.median(samples.replay_rates),
        "streaming.compactions": stats["compactions"],
        "streaming.topology_events": float(topology),
        "streaming.tick_events": float(len(events) - topology),
        "streaming.late_ticks_accepted": stats["late_ticks_accepted"],
        "streaming.ticks_dropped": stats["ticks_dropped"],
        # Whole passes, checkpoints included: the plain number beside
        # the undisturbed-chunk rate that is the end-to-end metric.
        "ingest_events_per_s": harness.median(samples.pass_rates),
        "recover_to_serve_s": harness.median(samples.restart_s),
        "bulk_forecasts_per_s": harness.median(samples.sweep_rates),
    }
    if traced:
        mean_ms = aggregator.mean_ms
        layers.update({
            "durable.append_us": mean_ms("bench.durable.append") * 1e3,
            "streaming.graph_apply_us": mean_ms(
                "bench.streaming.dyn_apply", self_only=True) * 1e3,
            "streaming.store_apply_us": mean_ms(
                "bench.streaming.store_apply", self_only=True) * 1e3,
            "streaming.compact_ms": mean_ms("streaming.compact"),
            "serving.batches": aggregator.count("gateway.serve_batch"),
            "serving.serve_batch_self_ms": mean_ms(
                "gateway.serve_batch", self_only=True),
            "serving.assembly_ms_per_batch": mean_ms("gateway.batch_assembly"),
            "graph.extract_ms_per_batch": mean_ms("gateway.extract"),
            "nn.forward_ms_per_batch": mean_ms("gateway.forward"),
            # Seconds per ingested event, traced over untraced.
            "obs.tracing_overhead": harness.ratio(
                untraced_rate, e2e["throughput_per_s"]),
            "bench.loop_coverage": harness.ratio(aggregator.root_seconds,
                                                 window_s),
        })
        expected = SPANS + (("streaming.compact",)
                            if stats["compactions"] else ())
        samples.problems.extend(f"span never seen: {name}"
                                for name in aggregator.missing(expected))
        harness.write_trace(workload, aggregator, window_s, 0.0)
    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "problems": samples.problems,
        "info": {
            "cycles": len(samples.pass_rates),
            "events_per_cycle": len(events),
            "restarts": len(samples.restart_s),
            "sweep_calls": len(samples.call_s),
            "window_s": window_s,
        },
    }
