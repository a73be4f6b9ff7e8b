"""Same-run check: disabled tracing is free, kernel profiles are complete.

* **Disabled tracing < 2%** of serving p95 and of an engine step.
  Instrumentation is compiled in, so the disabled cost is a proxy:
  (null-span cost, measured over a tight loop) x (spans executed per
  request / per step, counted from an enabled trace of the same
  workload) / (measured latency with tracing off).
* **Profile coverage >= 0.95**: with kernel profiling installed, the
  per-kernel timings account for at least 95% of the plan-replay wall
  time of a default-size Gaia training step.
"""

from __future__ import annotations

import time

import pytest

from repro import Gaia, GaiaConfig
from repro.nn.optim import clip_grad_norm
from repro.obs import NULL_TRACER, Tracer, profile_kernels, use_tracer
from repro.obs import tracing as obs_tracing
from repro.serving import GatewayConfig, LoadGenerator, ServingGateway, run_load
from repro.training import TrainConfig, Trainer

from conftest import bench_dataset, record

pytestmark = pytest.mark.slow

SHOPS = 300
REQUESTS = 400
STEPS = 8


def _null_span_seconds(iterations: int = 200_000) -> float:
    """Measured cost of one disabled instrumentation point."""
    span = obs_tracing.span
    started = time.perf_counter()
    for _ in range(iterations):
        with span("bench.null"):
            pass
    return (time.perf_counter() - started) / iterations


def _gaia_config(dataset, **sizes) -> GaiaConfig:
    return GaiaConfig(input_window=dataset.input_window,
                      horizon=dataset.horizon,
                      temporal_dim=dataset.temporal_dim,
                      static_dim=dataset.static_dim, **sizes)


def test_obs_overhead():
    _, dataset = bench_dataset(SHOPS, seed=11)
    small = _gaia_config(dataset, channels=8, num_scales=2, num_layers=1)
    stream = LoadGenerator(num_shops=dataset.test.num_shops, seed=7).generate(
        "repeating", num_requests=REQUESTS, working_set=REQUESTS // 3)

    def serve(tracer):
        """A fresh gateway warmed outside the timed window, then the stream."""
        gateway = ServingGateway((lambda: Gaia(small, seed=0)), dataset,
                                 config=GatewayConfig(max_batch_size=32))
        try:
            gateway.predict_many(stream[:64])
            with use_tracer(tracer):
                return run_load(gateway.predict_many, stream, pattern="repeating")
        finally:
            gateway.close()

    p95_disabled = serve(NULL_TRACER).latency["p95"]
    tracer = Tracer(max_roots=2 * REQUESTS)
    serve(tracer)
    spans_per_request = len(tracer.chrome_trace()) / REQUESTS
    null_span = _null_span_seconds()
    serving_overhead = spans_per_request * null_span / p95_disabled

    trainer = Trainer(Gaia(_gaia_config(dataset), seed=0), dataset,
                      TrainConfig(epochs=1, use_engine=True))
    batch = dataset.train[0]

    def one_step():
        trainer.optimizer.zero_grad()
        trainer._train_step_loss(0, batch)
        clip_grad_norm(trainer.optimizer.parameters, 5.0)
        trainer.optimizer.step()

    one_step()  # warmup: trace + plan compilation
    started = time.perf_counter()
    for _ in range(STEPS):
        one_step()
    step_seconds = (time.perf_counter() - started) / STEPS
    # One engine.step span per CompiledLoss.run and one train.step when
    # driven through Trainer.fit: budget two disabled spans per step.
    engine_overhead = 2 * null_span / step_seconds
    with profile_kernels() as profiler:
        for _ in range(STEPS):
            one_step()
    coverage = profiler.report()["coverage"]

    record("obs_overhead", {
        "null_span_ns": null_span * 1e9,
        "serving_p95_disabled_ms": p95_disabled * 1e3,
        "spans_per_request": spans_per_request,
        "serving_disabled_overhead": serving_overhead,
        "engine_step_ms": step_seconds * 1e3,
        "engine_disabled_overhead": engine_overhead,
        "profile_coverage": coverage,
    }, {
        "serving disabled overhead < 0.02": serving_overhead < 0.02,
        "engine disabled overhead < 0.02": engine_overhead < 0.02,
        "profile coverage >= 0.95": coverage >= 0.95,
    })
