"""The active health plane: SLOs, anomaly watches, probes, a black box.

Builds the full judgement layer of ``repro.obs`` around a live serving
gateway and a streaming feature store, then injects one incident and
watches the plane catch it:

* **SLO engine** — a latency objective on the gateway's p95 with
  SRE-style multi-window burn-rate alerting (page = 1h/5m at 14.4x,
  ticket = 3d/6h at 1x) and an error budget.
* **Anomaly monitor** — an EWMA z-score watch on the gateway queue
  depth; no objective declared, the baseline is learned online.
* **Health server** — gateway + streaming probes aggregated into one
  liveness/readiness report with flip transitions.
* **Flight recorder** — bounded rings of recent metric samples and
  transitions; when the injected slow model fires the page alert,
  the recorder dumps a JSON diagnostic bundle of the incident.

Everything runs under a :class:`~repro.obs.FakeClock`, so the whole
incident — including burn-rate windows measured in fake hours — plays
out instantly and identically on every run.

Run:
    python examples/health_plane.py
"""

import json
import tempfile
from pathlib import Path

from repro import Gaia, GaiaConfig, build_dataset, build_marketplace
from repro.data import MarketplaceConfig
from repro.obs import (
    SLO,
    AnomalyMonitor,
    FakeClock,
    FlightRecorder,
    HealthServer,
    MetricsHub,
    SLOEngine,
    gateway_probe,
    streaming_probe,
    use_clock,
)
from repro.serving import GatewayConfig, ServiceTimeModel, ServingGateway
from repro.streaming import SalesTick, StreamingFeatureStore


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

    dump_dir = Path(tempfile.mkdtemp(prefix="health-plane-"))
    with use_clock(FakeClock()) as clock:
        gateway = ServingGateway(
            (lambda: Gaia(config, seed=0)), dataset,
            config=GatewayConfig(max_batch_size=16, result_cache_size=1),
        )
        # Each forward advances the fake clock — under
        # use_clock(FakeClock) that *is* the serving latency.
        gateway.model = ServiceTimeModel(gateway.model, clock,
                                         per_forward_s=0.005)
        store = StreamingFeatureStore(dataset.graph.num_nodes,
                                      market.config.num_months, watermark=0)

        # --- wire the plane -------------------------------------------
        hub = MetricsHub()
        hub.attach_registry(gateway.metrics)
        hub.attach_streaming(store)
        hub.register_source("gateway", lambda: {
            "queue_depth": {"kind": "gauge",
                            "value": float(gateway.queue_depth())},
        })
        recorder = FlightRecorder(hub=hub, dump_dir=dump_dir)
        engine = SLOEngine(hub, clock=clock.now, recorder=recorder)
        engine.add(SLO(name="latency", series="serving.latency_seconds",
                       field="p95", objective=0.025, target=0.99,
                       description="p95 under 25 ms for 99% of evaluations"))
        monitor = AnomalyMonitor(hub, clock=clock.now, recorder=recorder)
        monitor.watch("queue-depth", "gateway.queue_depth", warmup=5,
                      z_threshold=3.0, direction="high", min_std=1.0)
        server = HealthServer(clock=clock.now, recorder=recorder)
        server.register("gateway", gateway_probe(gateway))
        server.register("streaming", streaming_probe(store))

        # --- healthy cruise, then the model degrades ------------------
        print("=== timeline (one round = 1 fake minute) ===")
        month = 0
        for rnd in range(30):
            if rnd == 15:
                gateway.model.per_forward_s = 0.08   # the incident
                print(f"[{rnd:02d}] >>> model degrades: "
                      "forwards now take 80 ms")
            for k in range(4):
                gateway.predict((rnd * 4 + k) % dataset.test.num_shops)
            month = min(month + 1, market.config.num_months - 1)
            store.apply(SalesTick(month=month, shop_index=0, gmv=1.0))
            fired = list(engine.evaluate()) + list(monitor.observe())
            server.check()
            recorder.sample()
            for t in fired:
                print(f"[{rnd:02d}] {t.severity.upper():<8} "
                      f"{t.source}:{t.name} -> {t.state}")
            clock.advance(60.0)
        gateway.close()

        # --- what the plane knows afterwards --------------------------
        print("\n=== error budget ===")
        for name, budget in engine.budget_report().items():
            print(f"  {name}: consumed {budget['budget_consumed']:.1%} "
                  f"of the error budget over {budget['samples']:.0f} samples")
        print("\n=== health report ===")
        report = server.check()
        print(f"  overall: {report['status']}")
        for name, probe in report["probes"].items():
            print(f"  {name}: {probe['status']}")

        dumps = sorted(dump_dir.glob("dump-*.json"))
        bundle = json.loads(dumps[0].read_text())
        print(f"\n=== flight-recorder bundles ({len(dumps)} dumped) ===")
        print(f"  first: {dumps[0].name} (trigger {bundle['trigger']!r}, "
              f"{len(bundle['samples'])} metric samples, "
              f"{len(bundle['transitions'])} transitions)")


if __name__ == "__main__":
    main()
