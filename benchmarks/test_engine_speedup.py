"""Same-run check: planned execution engine vs the eager autograd path.

On the 1000-shop marketplace a Gaia training step through the compiled
plan (fused kernels + compile-time schedule + the memory-planned arena)
must run at least 2x faster than the eager path on the kernel oracles
(``tests/kernel_oracles.py``: reference kernels, the K-conv composition
of each bank, per-step graph builds) measured in the same run, while
reproducing the oracle loss trajectory to <= 1e-12.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import pytest

from repro import Gaia, GaiaConfig
from repro.nn.optim import clip_grad_norm
from repro.training import TrainConfig, Trainer
from tests.kernel_oracles import use_oracles

from conftest import bench_dataset, record

pytestmark = pytest.mark.slow

SHOPS = 1000
STEPS = 10


def _timed_steps(dataset, oracles: bool, use_engine: bool, steps: int):
    """Mean seconds per training step + the loss trajectory of one side."""
    with use_oracles() if oracles else nullcontext():
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

        # Two untimed warmup steps per side (on the engine path: trace +
        # compile, then the first replay that materialises the arena), so
        # the timed trajectories stay step-aligned across sides.
        one_step()
        one_step()
        started = time.perf_counter()
        losses = [one_step() for _ in range(steps)]
        return (time.perf_counter() - started) / steps, losses


def test_engine_training_speedup():
    _, dataset = bench_dataset(SHOPS)
    eager_step, eager_losses = _timed_steps(
        dataset, oracles=True, use_engine=False, steps=STEPS // 2)
    engine_step, engine_losses = _timed_steps(
        dataset, oracles=False, use_engine=True, steps=STEPS)
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
