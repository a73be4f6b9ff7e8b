"""Benchmark: planned execution engine vs the eager autograd path.

Perf probe for the ``repro.nn.engine`` tentpole: on the 1000-shop
synthetic marketplace a Gaia training step through the compiled plan
(fused kernels + compile-time schedule + the memory-planned arena)
must run at least 2x faster than the pre-engine eager path
(``REPRO_NN_ENGINE=eager`` reference kernels, per-step graph builds),
while reproducing the eager loss trajectory to <= 1e-12 and allocating
**zero** arena buffers per steady-state replay.

A second scenario measures the ``float32`` serving backend: gateway
request p95 latency vs the ``float64`` reference on the same request
stream, gated on both the measured speedup and the backend's documented
accuracy budget (``engine.FLOAT32_ACCURACY_BUDGET``).

Results are appended to ``BENCH_engine.json`` next to this file
(override with ``REPRO_BENCH_ENGINE_ARTIFACT``); the committed last
record doubles as the regression baseline — the run fails if engine
throughput drops more than 10% below it (see ``engine_baseline`` in
``conftest.py``; set ``REPRO_BENCH_UPDATE_BASELINE=1`` to accept an
intentional regression).  The serving scenario merges its
``float32_serving`` block into the training record of the same run, so
one JSON record describes one benchmark session (schema documented in
``benchmarks/README.md``).

Scale knobs: ``REPRO_BENCH_ENGINE_SHOPS`` (default 1000),
``REPRO_BENCH_ENGINE_STEPS`` (default 10), and
``REPRO_BENCH_ENGINE_SERVE_SHOPS`` (default 300) for the float32
serving scenario.
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from repro import Gaia, GaiaConfig
from repro.data import MarketplaceConfig
from repro.deploy import ModelRegistry
from repro.nn import engine
from repro.nn.optim import clip_grad_norm
from repro.serving import GatewayConfig, ServingGateway
from repro.training import TrainConfig, Trainer

from conftest import ENGINE_ARTIFACT, bench_dataset

pytestmark = pytest.mark.slow

ENGINE_SHOPS = int(os.environ.get("REPRO_BENCH_ENGINE_SHOPS", "1000"))
ENGINE_STEPS = int(os.environ.get("REPRO_BENCH_ENGINE_STEPS", "10"))
SERVE_SHOPS = int(os.environ.get("REPRO_BENCH_ENGINE_SERVE_SHOPS", "300"))
ARTIFACT_PATH = Path(os.environ.get(
    "REPRO_BENCH_ENGINE_ARTIFACT", ENGINE_ARTIFACT,
))
MIN_SPEEDUP = 2.0
MAX_TRAJECTORY_DRIFT = 1e-12
REGRESSION_TOLERANCE = 0.10
#: Minimum gateway p95 speedup of the float32 backend over float64.
#: Calibrated ~2.1x on the reference machine; the floor leaves ample
#: headroom for noisy CI while still failing if float32 stops paying.
MIN_F32_P95_SPEEDUP = 1.2


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


def _gaia_config(dataset) -> GaiaConfig:
    return GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
    )


def _timed_steps(dataset, mode: str, use_engine: bool, steps: int):
    """Per-step wall clock + loss trajectory for one training config."""
    previous_mode = engine.engine_mode()
    engine.set_engine_mode(mode)
    try:
        model = Gaia(_gaia_config(dataset), seed=0)
        trainer = Trainer(
            model, dataset,
            TrainConfig(epochs=1, use_engine=use_engine),
        )
        batch = dataset.train[0]

        def one_step():
            trainer.optimizer.zero_grad()
            loss = trainer._train_step_loss(0, batch)
            clip_grad_norm(trainer.optimizer.parameters, 5.0)
            trainer.optimizer.step()
            return loss

        # Two untimed warmup steps per mode: on the engine path the
        # first traces and compiles the plan and the second is the
        # first replay, which materialises the arena buffers — timed
        # steps then exercise pure steady state.  Both modes take the
        # same warmup, so the timed loss trajectories stay step-aligned
        # for the drift comparison.
        one_step()
        one_step()
        warm_stats = engine.stats_snapshot()
        losses = []
        started = time.perf_counter()
        for _ in range(steps):
            losses.append(one_step())
        elapsed = time.perf_counter() - started
        return elapsed / steps, losses, warm_stats
    finally:
        engine.set_engine_mode(previous_mode)


def test_engine_training_speedup(engine_baseline):
    market, dataset = bench_dataset(ENGINE_SHOPS, seed=7,
                                    config_factory=MarketplaceConfig)
    eager_step, eager_losses, _ = _timed_steps(
        dataset, "eager", use_engine=False, steps=max(4, ENGINE_STEPS // 2)
    )
    engine.reset_stats()
    engine_step, engine_losses, warm_stats = _timed_steps(
        dataset, "fused", use_engine=True, steps=ENGINE_STEPS
    )
    stats = engine.stats_snapshot()
    speedup = eager_step / engine_step
    drift = max(
        abs(a - b) for a, b in zip(eager_losses, engine_losses)
    )
    throughput = 1.0 / engine_step

    # Arena steady state: the warmup step materialised every plan's
    # buffers, so the timed replays must not have allocated any more.
    replays = max(1, stats.get("plan_replays", 0)
                  - warm_stats.get("plan_replays", 0))
    allocations_per_replay = (
        stats.get("arena_buffers_allocated", 0)
        - warm_stats.get("arena_buffers_allocated", 0)
    ) / replays

    record = {
        "timestamp": datetime.now().isoformat(timespec="seconds"),
        "shops": ENGINE_SHOPS,
        "edges": int(dataset.graph.num_edges),
        "steps": ENGINE_STEPS,
        "eager_step_seconds": eager_step,
        "engine_step_seconds": engine_step,
        "speedup": speedup,
        "engine_steps_per_second": throughput,
        "max_loss_trajectory_drift": drift,
        "allocations_per_replay": allocations_per_replay,
        "peak_arena_bytes": stats.get("arena_bytes_allocated", 0),
        "engine_stats": {
            key: stats[key]
            for key in sorted(stats)
            if key.startswith(("fused_", "plan", "arena_"))
        },
    }

    assert drift <= MAX_TRAJECTORY_DRIFT, (
        f"engine loss trajectory drifted {drift} from the eager path"
    )
    assert stats.get("plan_replays", 0) >= ENGINE_STEPS - 1, (
        "engine fell back to eager execution instead of replaying plans"
    )
    assert allocations_per_replay == 0.0, (
        f"arena not in steady state: {allocations_per_replay} buffer "
        "allocations per replay after warmup"
    )
    assert stats.get("arena_bytes_allocated", 0) > 0, (
        "arena never materialised — memory planning is not engaging"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"engine speedup {speedup:.2f}x below the {MIN_SPEEDUP}x target "
        f"(eager {eager_step * 1000:.1f} ms/step, "
        f"engine {engine_step * 1000:.1f} ms/step)"
    )

    # Regression gate vs the committed baseline (>10% throughput drop
    # fails the -m slow run; REPRO_BENCH_UPDATE_BASELINE=1 to accept).
    if engine_baseline is not None and not os.environ.get(
        "REPRO_BENCH_UPDATE_BASELINE"
    ):
        baseline = engine_baseline.get("engine_steps_per_second")
        if baseline:
            floor = baseline * (1.0 - REGRESSION_TOLERANCE)
            assert throughput >= floor, (
                f"engine throughput {throughput:.2f} steps/s regressed "
                f">10% vs committed baseline {baseline:.2f} steps/s"
            )

    # Only a fully-passing run may become the next baseline — appending
    # earlier would let a regressed run ratchet the gate down.
    _append_artifact(record)


def _serving_p95(factory, dataset, registry, precision: str):
    """Gateway request p95 (seconds) + responses for one precision.

    ``result_cache_size=1`` keeps every request a genuine forward
    (cached hits would report near-zero latencies for both precisions
    and flatten the comparison).
    """
    gateway = ServingGateway(
        factory, dataset, registry,
        GatewayConfig(max_batch_size=16, max_wait=0.0005,
                      result_cache_size=1, precision=precision),
    )
    shops = list(range(dataset.graph.num_nodes))
    gateway.predict_many(shops[:32])  # warmup: caches, backend, buffers
    responses = None
    for _ in range(3):
        responses = gateway.predict_many(shops)
    report = gateway.metrics_report()
    gateway.close()
    p95 = float(report["distributions"]["latency_seconds"]["p95"])
    return p95, responses


def test_float32_serving_latency(engine_baseline):
    market, dataset = bench_dataset(SERVE_SHOPS, seed=7,
                                    config_factory=MarketplaceConfig)
    config = _gaia_config(dataset)

    def factory():
        return Gaia(config, seed=0)

    registry = ModelRegistry()
    registry.publish(factory(), trained_at_month=28)

    p95_64, responses_64 = _serving_p95(factory, dataset, registry,
                                        "float64")
    p95_32, responses_32 = _serving_p95(factory, dataset, registry,
                                        "float32")
    p95_speedup = p95_64 / p95_32 if p95_32 > 0 else float("inf")
    deviation = max(
        float(np.max(np.abs(f32.forecast - f64.forecast)
                     / (np.abs(f64.forecast) + 1.0)))
        for f32, f64 in zip(responses_32, responses_64)
    )

    block = {
        "shops": SERVE_SHOPS,
        "requests": 3 * dataset.graph.num_nodes,
        "float64_p95_ms": p95_64 * 1000.0,
        "float32_p95_ms": p95_32 * 1000.0,
        "p95_speedup": p95_speedup,
        "max_forecast_deviation": deviation,
        "accuracy_budget": engine.FLOAT32_ACCURACY_BUDGET,
    }

    assert deviation <= engine.FLOAT32_ACCURACY_BUDGET, (
        f"float32 forecasts deviate {deviation:.2e} from float64, over "
        f"the documented {engine.FLOAT32_ACCURACY_BUDGET:.0e} budget"
    )
    assert p95_speedup >= MIN_F32_P95_SPEEDUP, (
        f"float32 serving p95 speedup {p95_speedup:.2f}x below the "
        f"{MIN_F32_P95_SPEEDUP}x floor "
        f"(f64 {p95_64 * 1000:.1f} ms, f32 {p95_32 * 1000:.1f} ms)"
    )
    if engine_baseline is not None and not os.environ.get(
        "REPRO_BENCH_UPDATE_BASELINE"
    ):
        baseline = engine_baseline.get("float32_serving", {}) \
            .get("p95_speedup")
        if baseline:
            floor = baseline * (1.0 - REGRESSION_TOLERANCE)
            assert p95_speedup >= floor, (
                f"float32 p95 speedup {p95_speedup:.2f}x regressed >10% "
                f"vs committed baseline {baseline:.2f}x"
            )

    # Merge into this run's training record when present so one JSON
    # record describes one benchmark session; standalone runs (only
    # this test selected) append their own record.
    history = []
    if ARTIFACT_PATH.exists():
        try:
            history = json.loads(ARTIFACT_PATH.read_text())
        except (ValueError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    if history and "float32_serving" not in history[-1]:
        history[-1]["float32_serving"] = block
        ARTIFACT_PATH.write_text(json.dumps(history, indent=2) + "\n")
    else:
        _append_artifact({
            "timestamp": datetime.now().isoformat(timespec="seconds"),
            "float32_serving": block,
        })
