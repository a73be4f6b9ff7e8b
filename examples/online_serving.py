"""Online deployment scenario (paper §VI, Fig 5).

Simulates the production loop: the monthly offline pipeline retrains
Gaia and publishes versions to a model registry; the online model
server answers real-time requests for individual (including newcoming)
e-sellers from their 2-hop ego-subgraphs, with latency accounting.

Run:
    python examples/online_serving.py
"""

import numpy as np

from repro import Gaia, GaiaConfig, TrainConfig, build_marketplace
from repro.experiments import benchmark_marketplace_config
from repro.deploy import MonthlyPipeline, OnlineModelServer
from repro.training.metrics import mape


def main() -> None:
    market = build_marketplace(benchmark_marketplace_config(num_shops=150, seed=17))

    def gaia_factory(dataset):
        return Gaia(GaiaConfig(
            input_window=dataset.input_window,
            horizon=dataset.horizon,
            temporal_dim=dataset.temporal_dim,
            static_dim=dataset.static_dim,
        ), seed=0)

    # --- Offline: two scheduled monthly runs --------------------------
    pipeline = MonthlyPipeline(
        market, gaia_factory,
        TrainConfig(epochs=120, patience=25, learning_rate=7e-3),
    )
    final_month = market.config.num_months - 3
    runs = pipeline.run_schedule([final_month - 1, final_month])
    for run in runs:
        print(f"pipeline month {run.month}: published v{run.version.version} "
              f"(val MAE {run.val_mae:,.0f})")

    # --- Online: serve the freshest model ------------------------------
    latest_run = runs[-1]
    dataset = latest_run.dataset
    model = gaia_factory(dataset)
    pipeline.registry.load_into(model)

    server = OnlineModelServer(model, dataset, hops=2)
    test_shops = np.flatnonzero(dataset.active_mask(dataset.test, "test"))
    responses = server.predict_many(test_shops)
    predictions = np.stack([r.forecast for r in responses])
    online_mape = mape(predictions, dataset.test.labels[test_shops])

    summary = server.latency_summary()
    print(f"\nserved {int(summary['count'])} real-time requests")
    print(f"  online MAPE: {online_mape:.4f}")
    print(f"  latency: mean {summary['mean'] * 1000:.1f} ms, "
          f"p95 {summary['p95'] * 1000:.1f} ms")
    sizes = [r.subgraph_nodes for r in responses]
    print(f"  ego-subgraph sizes: median {int(np.median(sizes))}, "
          f"max {max(sizes)} of {dataset.graph.num_nodes} nodes")

    # A newcoming e-seller = shop with the shortest history.
    newcomer = int(np.argmin(np.where(
        dataset.test.mask.any(axis=1),
        dataset.test.mask.sum(axis=1),
        np.iinfo(np.int32).max,
    )))
    response = server.predict(newcomer)
    print(f"\nnewcoming e-seller {newcomer} "
          f"({int(dataset.test.mask[newcomer].sum())} months history): "
          f"forecast {np.round(response.forecast).astype(int).tolist()} "
          f"vs actual {np.round(dataset.test.labels[newcomer]).astype(int).tolist()}")


if __name__ == "__main__":
    main()
