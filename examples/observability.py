"""The observability plane: trace a serving session, profile the engine.

Spins up the serving gateway on a small synthetic marketplace, then
turns on each observability surface in turn:

* **Tracing** — a :class:`~repro.obs.Tracer` installed around a burst
  of requests captures one connected span tree per request (admission,
  queue wait, batch assembly, subgraph extraction, model forward);
  printed as a flamegraph-style text tree and exported as Chrome-trace
  JSON (load it in ``chrome://tracing`` / Perfetto).
* **Kernel profiling** — :func:`~repro.obs.profile_kernels` around a
  few compiled training steps yields per-kernel time / FLOPs rows and
  the coverage of the measured replay wall time.
* **Metrics hub** — a :class:`~repro.obs.MetricsHub` federates the
  gateway's registry under the ``serving.*`` namespace next to direct
  app-level counters, dumped in Prometheus text exposition format.

Run:
    python examples/observability.py
"""

from repro import Gaia, GaiaConfig, TrainConfig, Trainer, build_dataset, build_marketplace
from repro.data import MarketplaceConfig
from repro.obs import MetricsHub, Tracer, profile_kernels, use_tracer
from repro.serving import GatewayConfig, LoadGenerator, ServingGateway


def main() -> None:
    market = build_marketplace(MarketplaceConfig(num_shops=120, seed=23))
    dataset = build_dataset(market, train_fraction=0.6, val_fraction=0.2)
    config = GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
        channels=8,
        num_scales=2,
        num_layers=1,
    )

    # --- 1. Trace a burst of gateway requests --------------------------
    gateway = ServingGateway(
        (lambda: Gaia(config, seed=0)), dataset,
        config=GatewayConfig(max_batch_size=8),
    )
    stream = LoadGenerator(num_shops=dataset.test.num_shops, seed=7).generate(
        "zipf", num_requests=24
    )
    tracer = Tracer()
    with use_tracer(tracer):
        gateway.predict_many(stream)

    lines = tracer.format_tree().splitlines()
    print("=== span tree (request burst, first lines) ===")
    for line in lines[:16]:
        print(line)
    print(f"... {len(tracer.chrome_trace())} spans total "
          f"(tracer.to_chrome_json() -> chrome://tracing)")

    # --- 2. Profile the engine over a few training steps ---------------
    # First epoch traces + compiles each batch's plan; later epochs are
    # the replays the profiler instruments.
    trainer = Trainer(
        Gaia(config, seed=0), dataset,
        TrainConfig(epochs=4, use_engine=True),
    )
    with profile_kernels() as profiler:
        trainer.fit()
    report = profiler.report(top=5)
    print("\n=== top-5 kernels over "
          f"{report['replays']} profiled replays "
          f"(coverage {report['coverage']:.1%}) ===")
    for row in report["kernels"]:
        print(f"  {row['op']:<22} {row['phase']:<8} x{row['calls']:<5} "
              f"{row['seconds'] * 1e3:9.3f} ms "
              f"{row['flops'] / 1e6:9.1f} MFLOP")

    # --- 3. Federate metrics and export --------------------------------
    hub = MetricsHub()
    hub.attach_registry(gateway.metrics, namespace="serving")
    # An ad-hoc series is a source like any other: the hub stores nothing.
    hub.register_source("app", lambda: {
        "demo_runs_total": {"kind": "counter", "value": 1},
        "traced_requests": float(len(stream)),
    })
    print("\n=== prometheus exposition (excerpt) ===")
    for line in hub.to_prometheus().splitlines():
        if line.startswith(("# TYPE serving_qps", "serving_qps",
                            "# TYPE serving_requests", "serving_requests",
                            "# TYPE app_", "app_")):
            print(line)


if __name__ == "__main__":
    main()
