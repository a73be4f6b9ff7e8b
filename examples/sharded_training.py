"""Scaling out: graph partitioning + block-accumulated training.

The paper's deployed system retrains monthly on an e-seller graph that
spans millions of shops (§VI, Fig 5).  This example shows the repo's
scale-out path on a synthetic marketplace:

1. partition the e-seller graph into balanced owned sets
   (``repro.partition`` — greedy BFS vs the hash baseline) and count the
   rows a 2-layer forward over each method's blocks of the train rows
   reads (a row two blocks read is embedded twice);
2. train the same Gaia model with the sequential ``Trainer`` and with
   ``ParallelTrainer``, which accumulates each step's gradient over one
   owner block of the loss rows per shard, and show the loss
   trajectories agree to rounding;
3. run the monthly pipeline with ``n_shards=4`` and publish the
   sharded-trained model to the registry.

Run:
    python examples/sharded_training.py
"""

import time

import numpy as np

from repro import Gaia, GaiaConfig, TrainConfig, Trainer, build_marketplace
from repro.data import build_dataset
from repro.deploy import MonthlyPipeline
from repro.experiments import benchmark_marketplace_config
from repro.partition import partition_graph
from repro.training import ParallelTrainer


def gaia_factory(dataset):
    return Gaia(GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
        channels=16,
        num_scales=4,
        num_layers=2,
    ), seed=0)


def main() -> None:
    market = build_marketplace(benchmark_marketplace_config(num_shops=700, seed=17))
    dataset = build_dataset(market, train_fraction=0.65, val_fraction=0.15)

    # --- 1. Partition the graph ----------------------------------------
    active = dataset.active_mask(dataset.train[0], "train")
    one_block = sum(partition_graph(dataset.graph, 1).rows_read(2, active))
    print(f"one block over {int(active.sum())} train rows reads {one_block} rows")
    for method in ("bfs", "hash"):
        parts = partition_graph(dataset.graph, 4, method=method)
        summary = parts.summary()
        print(f"{method:>4} partitioning: edge cut "
              f"{summary['edge_cut_fraction']:.1%}, balance "
              f"{summary['balance']:.2f}, 4 blocks read "
              f"{sum(parts.rows_read(2, active))} rows")

    # --- 2. Sequential vs sharded training -----------------------------
    config = TrainConfig(epochs=15, patience=100, min_epochs=15,
                         learning_rate=7e-3)
    started = time.perf_counter()
    sequential = Trainer(gaia_factory(dataset), dataset, config)
    seq_history = sequential.fit()
    seq_seconds = time.perf_counter() - started
    print(f"\nsequential: {seq_seconds:.1f}s, "
          f"final train loss {seq_history.train_loss[-1]:.5f}")

    started = time.perf_counter()
    parallel = ParallelTrainer(gaia_factory(dataset), dataset, config,
                               n_shards=4)
    block_history = parallel.fit()
    block_seconds = time.perf_counter() - started
    diff = np.max(np.abs(np.asarray(block_history.train_loss)
                         - np.asarray(seq_history.train_loss)))
    print(f"4 blocks: {block_seconds:.1f}s, max loss deviation {diff:.2e}")

    # --- 3. Sharded monthly pipeline -----------------------------------
    pipeline = MonthlyPipeline(
        market, gaia_factory,
        TrainConfig(epochs=12, patience=6, learning_rate=7e-3),
        n_shards=4,
    )
    run = pipeline.run_month(market.config.num_months - 3)
    print(f"\npipeline month {run.month}: published v{run.version.version} "
          f"(val MAE {run.val_mae:,.0f}) trained on "
          f"{run.partition.num_partitions} shards")


if __name__ == "__main__":
    main()
