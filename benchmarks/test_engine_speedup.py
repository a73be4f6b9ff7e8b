"""Benchmark: planned execution engine vs the eager autograd path.

Perf probe for the ``repro.nn.engine`` tentpole: on the 1000-shop
synthetic marketplace a Gaia training step through the compiled plan
(fused kernels + compile-time schedule + the memory-planned arena)
must run at least 2x faster than the pre-engine eager path
(``REPRO_NN_ENGINE=eager`` reference kernels, per-step graph builds),
while reproducing the eager loss trajectory to <= 1e-12 and allocating
**zero** arena buffers per steady-state replay.

Results are appended to ``BENCH_engine.json`` next to this file
(override with ``REPRO_BENCH_ENGINE_ARTIFACT``); the committed last
record doubles as the regression baseline — the run fails if engine
throughput drops more than 10% below it (see ``engine_baseline`` in
``conftest.py``; set ``REPRO_BENCH_UPDATE_BASELINE=1`` to accept an
intentional regression).  The schema is documented in
``benchmarks/README.md``.

Scale knobs: ``REPRO_BENCH_ENGINE_SHOPS`` (default 1000) and
``REPRO_BENCH_ENGINE_STEPS`` (default 10).
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime
from pathlib import Path

import pytest

from repro import Gaia, GaiaConfig
from repro.data import MarketplaceConfig
from repro.nn import engine
from repro.nn.optim import clip_grad_norm
from repro.training import TrainConfig, Trainer

from conftest import ENGINE_ARTIFACT, bench_dataset

pytestmark = pytest.mark.slow

ENGINE_SHOPS = int(os.environ.get("REPRO_BENCH_ENGINE_SHOPS", "1000"))
ENGINE_STEPS = int(os.environ.get("REPRO_BENCH_ENGINE_STEPS", "10"))
ARTIFACT_PATH = Path(os.environ.get(
    "REPRO_BENCH_ENGINE_ARTIFACT", ENGINE_ARTIFACT,
))
MIN_SPEEDUP = 2.0
MAX_TRAJECTORY_DRIFT = 1e-12
REGRESSION_TOLERANCE = 0.10


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
