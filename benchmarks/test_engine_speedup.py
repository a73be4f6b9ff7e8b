"""Same-run check: planned execution engine vs the eager autograd path.

On the 1000-shop marketplace a Gaia training step through the compiled
plan (fused kernels + compile-time schedule + the memory-planned arena)
must run at least 2x faster than the eager path (``REPRO_NN_ENGINE=eager``
reference kernels, per-step graph builds) measured in the same run,
while reproducing the eager loss trajectory to <= 1e-12.
"""

from __future__ import annotations

import time

import pytest

from repro import Gaia, GaiaConfig
from repro.nn import engine
from repro.nn.optim import clip_grad_norm
from repro.training import TrainConfig, Trainer

from conftest import bench_dataset, record

pytestmark = pytest.mark.slow

SHOPS = 1000
STEPS = 10


def _timed_steps(dataset, mode: str, use_engine: bool, steps: int):
    """Mean seconds per training step + the loss trajectory of one mode."""
    previous_mode = engine.engine_mode()
    engine.set_engine_mode(mode)
    try:
        model = Gaia(GaiaConfig(
            input_window=dataset.input_window,
            horizon=dataset.horizon,
            temporal_dim=dataset.temporal_dim,
            static_dim=dataset.static_dim,
        ), seed=0)
        trainer = Trainer(model, dataset,
                          TrainConfig(epochs=1, use_engine=use_engine))
        batch = dataset.train[0]

        def one_step():
            trainer.optimizer.zero_grad()
            loss = trainer._train_step_loss(0, batch)
            clip_grad_norm(trainer.optimizer.parameters, 5.0)
            trainer.optimizer.step()
            return loss

        # Two untimed warmup steps per mode (on the engine path: trace +
        # compile, then the first replay that materialises the arena), so
        # the timed trajectories stay step-aligned across modes.
        one_step()
        one_step()
        started = time.perf_counter()
        losses = [one_step() for _ in range(steps)]
        return (time.perf_counter() - started) / steps, losses
    finally:
        engine.set_engine_mode(previous_mode)


def test_engine_training_speedup():
    _, dataset = bench_dataset(SHOPS)
    eager_step, eager_losses = _timed_steps(
        dataset, "eager", use_engine=False, steps=STEPS // 2)
    engine_step, engine_losses = _timed_steps(
        dataset, "fused", use_engine=True, steps=STEPS)
    speedup = eager_step / engine_step
    drift = max(abs(a - b) for a, b in zip(eager_losses, engine_losses))
    record("engine_speedup", {
        "eager_step_ms": eager_step * 1e3,
        "engine_step_ms": engine_step * 1e3,
        "speedup": speedup,
        "max_loss_trajectory_drift": drift,
    }, {
        "speedup >= 2.0": speedup >= 2.0,
        "loss drift <= 1e-12": drift <= 1e-12,
    })
