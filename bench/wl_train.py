"""Workload ``train_epoch``: the monthly retrain.

A closed loop of single-epoch ``Trainer.fit()`` calls on one trainer.
An epoch is one full-batch train step through the compiled plan
(forward and backward replay in the arena, gradient clip, Adam) plus the
eager validation forward.  The kernels are the ones the serve workloads
run, in the other mode (planned training replay instead of eager
inference), so an engine change that helps one mode and hurts the other
shows on one of the two sides.

Trace and compile happen in the first epoch of a trainer.  That epoch
is not part of the timed loop; building a trainer and running it is
reported as ``cold_start_s`` so work moved into the compile stays
visible.  (The arena is allocated by the first replay, in the second
epoch; how long that takes is mostly the host zeroing fresh pages and
moved by a factor of four between samples, so it is left to the warm-up
and shows as ``nn.arena_bytes`` and ``peak_rss_mb``.)
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from typing import List, Sequence

import numpy as np

from repro import TrainConfig
from repro.nn import engine
from repro.obs import tracing as obs_tracing
from repro.obs.profiling import profile_kernels
from repro.training import Trainer

import harness
from harness import clock

NUM_SHOPS = 1000
COLD_STARTS = 5
#: The second epoch of a trainer is the first plan replay, which
#: allocates the arena; one more and the loop is warm.
WARM_EPOCHS = 2
#: Epochs per slice of the latency statistics (about 4 s).
SLICE_EPOCHS = 10
REFERENCE_EPOCHS = 5
CHECK_EPOCHS = 3
#: ``fit()`` is called one epoch at a time, so early stopping can never
#: end a call early; pinned anyway so a change to its defaults cannot.
NEVER = 10 ** 9

SPANS = ("train.epoch", "train.step")

#: The kernel rows of ``profile_kernels().report()`` that lead at the
#: commit that defined the benchmark; declared by name in BENCHMARK.json.
KERNEL_ROWS = (
    ("scaled_masked_softmax", "forward"), ("multi_conv1d", "backward"),
    ("conv1d", "backward"), ("multi_conv1d", "forward"),
    ("matmul", "backward"), ("gather_rows", "backward"),
    ("conv1d", "forward"), ("scaled_masked_softmax", "backward"),
)


def _trainer(world, use_engine: bool = True) -> Trainer:
    config = TrainConfig(epochs=1, patience=NEVER, min_epochs=NEVER,
                         use_engine=use_engine)
    return Trainer(world.model(0), world.dataset, config)


def _epoch(trainer: Trainer) -> float:
    started = clock()
    with obs_tracing.span("bench.training.fit"):
        trainer.fit()
    return clock() - started


def run(workload: str, seed: int, seconds: float, traced: bool, quick: bool,
        import_s: Sequence[float]) -> dict:
    num_shops = NUM_SHOPS // 4 if quick else NUM_SHOPS
    world, setup_s = harness.timed_setups(
        lambda: harness.build_world(
            num_shops, seed, stream=False,
            dataset_kwargs={"train_fraction": 0.65, "val_fraction": 0.15},
        ),
        1 if quick else 5, import_s,
    )

    # ---- cold start: build a trainer, run its first epoch ------------
    cold: List[float] = []
    trainer = None
    for _ in range(2 if quick else COLD_STARTS):
        trainer = None
        gc.collect()
        started = clock()
        trainer = _trainer(world)
        trainer.fit()
        cold.append(clock() - started)
    before = engine.stats_snapshot()
    for _ in range(WARM_EPOCHS):
        trainer.fit()
    arena_bytes = float(
        engine.stats_snapshot().get("arena_bytes_allocated", 0)
        - before.get("arena_bytes_allocated", 0))

    # ---- timed loop ---------------------------------------------------
    aggregator = harness.SpanAggregator()
    reference: List[float] = []
    epochs: List[float] = []
    profile = None
    if traced:
        reference = [_epoch(trainer) for _ in range(REFERENCE_EPOCHS)]
    replays_before = engine.stats_snapshot().get("plan_replays", 0)
    window_started = clock()
    if traced:
        obs_tracing.set_tracer(harness.make_tracer(aggregator))
    try:
        with (profile_kernels() if traced else nullcontext()) as profiler:
            while clock() - window_started < seconds:
                epochs.append(_epoch(trainer))
            if traced:
                profile = profiler.report()
    finally:
        obs_tracing.set_tracer(obs_tracing.NULL_TRACER)
    window_s = clock() - window_started
    replays = engine.stats_snapshot().get("plan_replays", 0) - replays_before

    # ---- correctness --------------------------------------------------
    problems: List[str] = []
    failed = 0
    losses = trainer.history.train_loss
    if not np.all(np.isfinite(losses)) or trainer.history.epochs_run != (
            1 + WARM_EPOCHS + len(reference) + len(epochs)):
        failed += 1
        problems.append("training produced a non-finite loss or lost epochs")
    eager = _trainer(world, use_engine=False)
    for _ in range(CHECK_EPOCHS):
        eager.fit()
    gap = float(np.max(np.abs(
        np.asarray(losses[:CHECK_EPOCHS])
        - np.asarray(eager.history.train_loss[:CHECK_EPOCHS]))))
    if not gap <= 1e-9:
        failed += CHECK_EPOCHS
        problems.append(f"engine-path losses differ from the eager path by "
                        f"{gap:.3e} over the first {CHECK_EPOCHS} epochs")

    epoch_s, p95_s, per_s = harness.sliced_latency(epochs, SLICE_EPOCHS)
    e2e = {
        "setup_s": setup_s,
        "latency_p50_ms": epoch_s * 1e3,
        "throughput_per_s": per_s,
        "cold_start_s": harness.undisturbed(cold, "lower"),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    layers = {
        "data.build_marketplace_s": world.timings["build_marketplace_s"],
        "data.build_dataset_s": world.timings["build_dataset_s"],
        "latency_p95_ms": p95_s * 1e3,
        # The first epoch is one eager traced step plus the compile.
        "nn.plan_compile_s": max(e2e["cold_start_s"] - epoch_s, 0.0),
        "nn.plan_replays": float(replays),
        "nn.arena_bytes": arena_bytes,
        "training.final_train_loss": float(losses[-1]),
        "training.epochs_timed": float(len(epochs)),
        # The plain number beside the undisturbed-slice rate above.
        "train_epochs_per_s": len(epochs) / window_s,
    }
    if traced:
        steps = aggregator.count("train.step")
        step_ms = aggregator.mean_ms("train.step")
        replay_ms = harness.ratio(profile["replay_seconds"] * 1e3,
                                  profile["replays"])
        rows = {(row["op"], row["phase"]): row["seconds"]
                for row in profile["kernels"]}
        layers.update({
            "nn.replay_ms_per_step": replay_ms,
            "nn.kernel_coverage": float(profile["coverage"]),
            "training.step_ms": step_ms,
            # ``train.epoch`` has only ``train.step`` children, so its
            # self time is the validation forward and the bookkeeping.
            "training.val_ms": aggregator.mean_ms("train.epoch",
                                                  self_only=True),
            # Inside a step, whatever is not plan replay: zero_grad,
            # gradient clip and the Adam update.
            "training.optimizer_ms": max(step_ms - replay_ms, 0.0),
            "obs.tracing_overhead": harness.ratio(
                epoch_s, harness.undisturbed(reference, "lower")),
            "bench.loop_coverage": harness.ratio(aggregator.root_seconds,
                                                 window_s),
        })
        for op, phase in KERNEL_ROWS:
            layers[f"nn.kernel.{op}.{phase}_ms"] = harness.ratio(
                rows.get((op, phase), 0.0) * 1e3, steps)
        problems.extend(f"span never seen: {name}"
                        for name in aggregator.missing(SPANS))
        harness.write_trace(workload, aggregator, window_s, 0.0,
                            extra={"kernels": profile})
    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": len(epochs) + CHECK_EPOCHS,
        "failed": failed,
        "problems": problems,
        "info": {
            "epochs_timed": len(epochs),
            "reference_epochs": len(reference),
            "window_s": window_s,
            "first_losses": [float(x) for x in losses[:CHECK_EPOCHS]],
            "cold_start_samples_s": cold,
        },
    }

