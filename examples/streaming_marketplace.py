"""Streaming marketplace: live ingestion, delta-aware serving, online adaptation.

The full streaming loop on one synthetic marketplace:

1. The monthly pipeline trains and publishes a Gaia model at the
   deployment month (the static snapshot world).
2. A ``MarketplaceSimulator`` streams everything that happens next —
   cold-start shop arrivals, supply-chain/ownership edges revealed and
   churned, monthly sales ticks (a quarter of them arriving late, out
   of order) — as a deterministic event log folded under an event-time
   watermark.
3. A ``ServingGateway`` attached to the ``DynamicGraph`` overlay *and*
   the feature store serves a hot request stream through the churn:
   every mutation evicts only the cached subgraphs/results whose node
   sets it touched, and every month of fresh sales expires the result
   cache on data freshness (``max_staleness_months``), so hit rates
   survive without ever serving outdated numbers silently.
4. An ``OnlineAdapter`` watches per-shop error EWMAs over the fresh
   event-fed windows, scoring the shops the store recorded accepted
   ticks for; on drift it warm fine-tunes the deployed weights
   and hot-swaps them through the registry — the gateway picks the new
   version up live.
5. At the end, the dynamic graph is compacted and the gateway's
   forecasts are checked against a cold rebuild of the final state
   (the subsystem's equivalence guarantee).

Run:
    python examples/streaming_marketplace.py
"""

import dataclasses

import numpy as np

from repro import Gaia, GaiaConfig, TrainConfig, build_marketplace
from repro.deploy import MonthlyPipeline
from repro.experiments import benchmark_marketplace_config
from repro.serving import GatewayConfig, LoadGenerator, ServingGateway
from repro.streaming import MarketplaceSimulator, SalesTick, ShopAdded
from repro.training import OnlineAdapter, OnlineAdapterConfig


def main() -> None:
    market = build_marketplace(
        benchmark_marketplace_config(num_shops=300, seed=17)
    )
    months = market.config.num_months
    deploy_month = months - 8

    def gaia_factory(dataset, seed=0):
        return Gaia(GaiaConfig(
            input_window=dataset.input_window,
            horizon=dataset.horizon,
            temporal_dim=dataset.temporal_dim,
            static_dim=dataset.static_dim,
        ), seed=seed)

    # --- Offline: train + publish the deployment snapshot ---------------
    pipeline = MonthlyPipeline(
        market, gaia_factory,
        TrainConfig(epochs=50, patience=12, learning_rate=7e-3),
    )
    run = pipeline.run_month(deploy_month)
    dataset = run.dataset
    print(f"deployed v{run.version.version} at month {deploy_month} "
          f"(val MAE {run.val_mae:,.0f})")

    # --- Streaming world -------------------------------------------------
    simulator = MarketplaceSimulator(
        market, start_month=deploy_month, edge_churn_per_month=3,
        late_tick_fraction=0.25, late_tick_max_delay=2, seed=7,
    )
    dynamic_graph = simulator.initial_dynamic_graph()
    store = simulator.initial_store(watermark=2)

    gateway = ServingGateway(
        model_factory=lambda: gaia_factory(dataset),
        dataset=dataset,
        registry=pipeline.registry,
        config=GatewayConfig(max_batch_size=32, max_staleness_months=1),
    )
    gateway.attach_stream(dynamic_graph, store=store)

    adapter = OnlineAdapter(
        gaia_factory(dataset), pipeline.registry, store, dynamic_graph,
        dataset,
        OnlineAdapterConfig(drift_threshold=0.8, min_drifted_shops=5,
                            adapt_steps=10),
    )

    # --- Live months: ingest events, serve traffic, adapt on drift ------
    generator = LoadGenerator(num_shops=dataset.test.num_shops, seed=11)
    stream = generator.generate("repeating", num_requests=240, working_set=120)
    total_events = 0
    for month in simulator.streaming_months:
        events = simulator.events_for_month(month)
        for event in events:
            dynamic_graph.apply(event)
            store.apply(event)
        total_events += len(events)
        responses = gateway.predict_many(stream)
        latencies = np.array([r.latency_seconds for r in responses])
        report = adapter.observe_month(month)
        arrivals = sum(isinstance(e, ShopAdded) for e in events)
        line = (f"month {month}: {len(events):4d} events "
                f"({arrivals} arrivals), p95 "
                f"{np.percentile(latencies, 95) * 1e3:6.2f} ms, "
                f"serving v{responses[-1].model_version}")
        if report is not None:
            line += (f"  << drift: {report.num_drifted} shops, fine-tuned "
                     f"loss {report.pre_loss:.4f} -> {report.post_loss:.4f}, "
                     f"published v{report.version}")
        print(line)

    # --- Cold-start arrival served live ----------------------------------
    arrived = np.flatnonzero(
        np.asarray(market.opened_month) >= deploy_month
    )
    if arrived.size:
        newcomer = int(arrived[0])
        response = gateway.predict(newcomer)
        print(f"\ncold-start shop {newcomer} (arrived month "
              f"{market.opened_month[newcomer]}): forecast "
              f"{np.round(response.forecast, 0)}, "
              f"{response.subgraph_nodes} subgraph nodes")

    # --- Freshness in action: a late partial tick lands for a cached shop
    victim = int(stream[0])
    cached = gateway.predict(victim)
    store.apply(SalesTick(month=months - 1, shop_index=victim,
                          gmv=1000.0, orders=3, customers=2))
    tagged = gateway.predict(victim)
    print(f"\nfreshness: shop {victim} cached={cached.cached}; after a late "
          f"partial tick its next serve is tagged stale={tagged.stale} "
          f"(event-time lag {tagged.staleness_months} months)")

    # --- Health + the equivalence guarantee ------------------------------
    metrics = gateway.metrics_report()
    print(f"\nstreamed {total_events} events, "
          f"{int(metrics['counters'].get('graph_delta_invalidations', 0))} "
          f"delta invalidations (evicted "
          f"{int(metrics['counters'].get('delta_evicted_subgraphs', 0))} "
          f"subgraphs), result-cache hit rate "
          f"{metrics['cache_hit_rate']:.2%}")
    freshness = metrics["data_freshness"]
    print(f"event time: frontier month {freshness['frontier']}, "
          f"{simulator.late_ticks_injected} ticks arrived late "
          f"({freshness['late_ticks_accepted']} merged in-window, "
          f"{freshness['ticks_dropped']} dropped beyond watermark), "
          f"{int(freshness['freshness_evictions'])} freshness evictions, "
          f"{int(freshness['stale_results_served'])} stale-tagged serves")
    print(f"registry versions: {pipeline.registry.num_versions} "
          f"({len(adapter.adaptations)} online adaptations), "
          f"graph compactions: {dynamic_graph.compactions}")

    sample = stream[:40]
    live = np.stack([r.forecast for r in gateway.predict_many(sample)])
    cold_gateway = ServingGateway(
        model_factory=lambda: gaia_factory(dataset),
        dataset=dataclasses.replace(dataset, graph=dynamic_graph.as_graph()),
        registry=pipeline.registry,
        config=GatewayConfig(max_batch_size=32),
    )
    cold = np.stack([r.forecast for r in cold_gateway.predict_many(sample)])
    max_diff = float(np.abs(live - cold).max())
    print(f"equivalence vs cold rebuild of final state: "
          f"max forecast diff {max_diff:.2e}")
    assert max_diff <= 1e-12
    gateway.close()
    cold_gateway.close()


if __name__ == "__main__":
    main()
