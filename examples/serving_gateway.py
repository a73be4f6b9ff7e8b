"""Serving at scale: the high-throughput gateway (paper §VI, scaled up).

Builds on the online deployment scenario: the monthly pipeline publishes
Gaia versions to the model registry, then a :class:`ServingGateway`
serves a heavy, skewed request stream in front of the model — requests
coalesce into node-disjoint micro-batches (one forward per batch),
repeated shops hit the LRU result cache, and every publish hot-swaps
the model's weights whole.  The same stream is also
replayed through the classic sequential ``OnlineModelServer`` so the
speedup and the numerical equivalence are both visible.

Run:
    python examples/serving_gateway.py
"""

import numpy as np

from repro import Gaia, GaiaConfig, TrainConfig, build_marketplace
from repro.experiments import benchmark_marketplace_config
from repro.deploy import MonthlyPipeline, OnlineModelServer
from repro.serving import GatewayConfig, LoadGenerator, ServingGateway, run_load


def main() -> None:
    market = build_marketplace(benchmark_marketplace_config(num_shops=300, seed=17))

    def gaia_factory(dataset):
        return Gaia(GaiaConfig(
            input_window=dataset.input_window,
            horizon=dataset.horizon,
            temporal_dim=dataset.temporal_dim,
            static_dim=dataset.static_dim,
        ), seed=0)

    # --- Offline: train once, publish to the registry ------------------
    pipeline = MonthlyPipeline(
        market, gaia_factory,
        TrainConfig(epochs=60, patience=15, learning_rate=7e-3),
    )
    run = pipeline.run_month(market.config.num_months - 3)
    print(f"pipeline month {run.month}: published v{run.version.version} "
          f"(val MAE {run.val_mae:,.0f})")
    dataset = run.dataset

    # --- Gateway setup: batch up to 32 requests ------------------------
    gateway = ServingGateway(
        model_factory=lambda: gaia_factory(dataset),
        dataset=dataset,
        registry=pipeline.registry,
        config=GatewayConfig(max_batch_size=32),
    )

    # --- Load generation: skewed traffic with a hot working set --------
    generator = LoadGenerator(num_shops=dataset.test.num_shops, seed=7)
    stream = generator.generate("repeating", num_requests=900, working_set=300)

    gateway_report = run_load(gateway.predict_many, stream, pattern="repeating")

    sequential_model = gaia_factory(dataset)
    pipeline.registry.load_into(sequential_model)
    sequential = OnlineModelServer(sequential_model, dataset, hops=2)
    sequential_report = run_load(
        sequential.predict_many, stream[:300], pattern="repeating"
    )

    # --- Equivalence: gateway numerics == sequential path --------------
    sample = stream[:50]
    gateway_forecasts = np.stack(
        [r.forecast for r in gateway.predict_many(sample)]
    )
    sequential_forecasts = np.stack(
        [r.forecast for r in sequential.predict_many(sample)]
    )
    max_diff = float(np.abs(gateway_forecasts - sequential_forecasts).max())

    # --- Metrics report -------------------------------------------------
    metrics = gateway.metrics_report()
    print(f"\ngateway:    {gateway_report.throughput_rps:8.0f} req/s "
          f"(p50 {gateway_report.latency['p50'] * 1000:.2f} ms, "
          f"p99 {gateway_report.latency['p99'] * 1000:.2f} ms)")
    print(f"sequential: {sequential_report.throughput_rps:8.0f} req/s "
          f"(p50 {sequential_report.latency['p50'] * 1000:.2f} ms, "
          f"p99 {sequential_report.latency['p99'] * 1000:.2f} ms)")
    speedup = gateway_report.throughput_rps / sequential_report.throughput_rps
    print(f"speedup: {speedup:.1f}x, max forecast deviation {max_diff:.2e}")
    print(f"\ncache hit rate:  {metrics['cache_hit_rate']:.2%}")
    print(f"batch occupancy: {metrics['batch_occupancy']:.2%} "
          f"of max_batch_size={gateway.config.max_batch_size}")
    print(f"serving v{metrics['serving_version']}: "
          f"{metrics['counters']['batches_total']:.0f} batches forwarded")

    # --- Hot swap: a new publish refreshes the weights mid-traffic -----
    print("\nretraining + publishing v2 (hot swap)...")
    run2 = pipeline.run_month(market.config.num_months - 3)
    response = gateway.predict(int(stream[0]))
    print(f"first request after publish: served on "
          f"v{response.model_version} (cached={response.cached})")
    assert response.model_version == run2.version.version


if __name__ == "__main__":
    main()
