"""Scaling out: sharded graph partitioning + data-parallel training.

The paper's deployed system retrains monthly on an e-seller graph that
spans millions of shops (§VI, Fig 5).  This example shows the repo's
scale-out path on a synthetic marketplace:

1. partition the e-seller graph into balanced shards with halo (ghost)
   sets (``repro.partition`` — greedy BFS vs the hash baseline);
2. train the same Gaia model three ways — sequential ``Trainer``,
   ``ParallelTrainer`` in deterministic sim mode, and (on multi-core
   hosts) ``ParallelTrainer`` with one OS process per shard — and show
   the loss trajectories agree to ~1e-15 while wall-clock drops;
3. run the monthly pipeline with ``n_shards=4`` and publish the
   sharded-trained model to the registry.

Run:
    python examples/sharded_training.py
"""

import os
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
    for method in ("bfs", "hash"):
        parts = partition_graph(dataset.graph, 4, method=method, halo_hops=2)
        summary = parts.summary()
        print(f"{method:>4} partitioning: edge cut "
              f"{summary['edge_cut_fraction']:.1%}, balance "
              f"{summary['balance']:.2f}, halo overhead "
              f"{summary['halo_overhead']:.1%}")

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
                               n_shards=4, mode="sim")
    sim_history = parallel.fit()
    sim_seconds = time.perf_counter() - started
    diff = np.max(np.abs(np.asarray(sim_history.train_loss)
                         - np.asarray(seq_history.train_loss)))
    print(f"4 shards (sim): {sim_seconds:.1f}s "
          f"({seq_seconds / sim_seconds:.2f}x), "
          f"max loss deviation {diff:.2e}")

    if (os.cpu_count() or 1) > 1:
        started = time.perf_counter()
        ParallelTrainer(gaia_factory(dataset), dataset, config,
                        n_shards=4, mode="process").fit()
        proc_seconds = time.perf_counter() - started
        print(f"4 shards (process): {proc_seconds:.1f}s "
              f"({seq_seconds / proc_seconds:.2f}x)")

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
