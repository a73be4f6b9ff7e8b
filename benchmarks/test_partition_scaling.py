"""Benchmark: partitioner quality and block locality for sharded training.

Two probes for ``repro.partition`` and
``repro.training.parallel.ParallelTrainer``, which accumulates each
step's gradient over one owner block of loss rows per shard, every block
forwarded on the full graph over the rows within ``L`` layers of it:

* **partition quality** — greedy-BFS vs the hash baseline at 1k and 5k
  shops: the BFS partitioner must never cut more edges than hash while
  respecting its balance cap, and the rows an ``L = 2`` forward over its
  blocks reads (``GraphPartition.rows_read``, summed over blocks — a row
  two blocks read is embedded twice) must not exceed hash's.
* **block locality** — ``ParallelTrainer`` at ``K = 4`` with BFS and
  with hash blocks against the sequential ``Trainer`` at identical
  epochs on the benchmark marketplace: both trajectories match the
  sequential one to ``rtol=1e-9``, and the BFS blocks of the train rows
  read no more rows than the hash blocks — the same-run gate on what a
  partitioner buys.  Wall-clock seconds are recorded, not gated.

Results append to ``BENCH_partition.json`` next to this file (override
with ``REPRO_BENCH_PARTITION_ARTIFACT``).  Scale knobs:
``REPRO_BENCH_PARTITION_SHOPS`` (default 1000) and
``REPRO_BENCH_PARTITION_EPOCHS`` (default 6).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import Gaia, GaiaConfig
from repro.graph import generate_seller_graph
from repro.partition import partition_graph
from repro.training import ParallelTrainer, TrainConfig, Trainer

from conftest import bench_dataset, run_once, seeded_rng

pytestmark = pytest.mark.slow

PARTITION_SHOPS = int(os.environ.get("REPRO_BENCH_PARTITION_SHOPS", "1000"))
PARTITION_EPOCHS = int(os.environ.get("REPRO_BENCH_PARTITION_EPOCHS", "6"))
N_SHARDS = 4
DEPTH = 2
ARTIFACT_PATH = Path(os.environ.get(
    "REPRO_BENCH_PARTITION_ARTIFACT",
    Path(__file__).resolve().parent / "BENCH_partition.json",
))


def _append_artifact(record: dict) -> None:
    history = []
    if ARTIFACT_PATH.exists():
        try:
            history = json.loads(ARTIFACT_PATH.read_text())
        except (ValueError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    ARTIFACT_PATH.write_text(json.dumps(history, indent=2) + "\n")


def test_partition_quality(benchmark):
    """BFS beats the hash baseline on edge cut and rows read at 1k-5k shops."""

    def run():
        results = []
        for num_nodes in (1000, 5000):
            graph = generate_seller_graph(num_nodes, seeded_rng(13)).graph
            for k in (4, 8):
                timings = {}
                summaries = {}
                for method in ("bfs", "hash"):
                    started = time.perf_counter()
                    parts = partition_graph(graph, k, method=method)
                    timings[method] = time.perf_counter() - started
                    summaries[method] = dict(
                        parts.summary(), rows_read=sum(parts.rows_read(DEPTH)))
                results.append({
                    "num_nodes": num_nodes,
                    "num_edges": graph.num_edges,
                    "k": k,
                    "depth": DEPTH,
                    "bfs": summaries["bfs"],
                    "hash": summaries["hash"],
                    "bfs_seconds": timings["bfs"],
                    "hash_seconds": timings["hash"],
                })
        return results

    results = run_once(benchmark, run)
    for entry in results:
        bfs, baseline = entry["bfs"], entry["hash"]
        print(
            f"\n{entry['num_nodes']} shops k={entry['k']}: "
            f"cut bfs {bfs['edge_cut_fraction']:.3f} vs "
            f"hash {baseline['edge_cut_fraction']:.3f}, "
            f"rows read bfs {bfs['rows_read']} vs hash {baseline['rows_read']}"
        )
        assert bfs["edge_cut"] <= baseline["edge_cut"]
        assert bfs["balance"] <= 1.2
        assert bfs["rows_read"] <= baseline["rows_read"]
    _append_artifact({"kind": "partition_quality", "results": results})


def test_block_locality(benchmark):
    """BFS blocks of the train rows read no more rows than hash blocks,
    and both sharded trajectories match the sequential one to 1e-9."""
    market, dataset = bench_dataset(PARTITION_SHOPS, seed=17)
    config = GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
        channels=16,
        num_scales=4,
        num_layers=DEPTH,
    )
    # Fixed epoch budget, early stopping disabled: every trainer takes
    # the same steps, so the trajectories compare one to one.
    train_config = TrainConfig(
        epochs=PARTITION_EPOCHS,
        patience=10**6,
        min_epochs=PARTITION_EPOCHS,
        learning_rate=7e-3,
    )
    active = dataset.active_mask(dataset.train[0], "train")

    def timed_fit(trainer):
        started = time.perf_counter()
        history = trainer.fit()
        return history, time.perf_counter() - started

    def run():
        seq_history, seq_seconds = timed_fit(
            Trainer(Gaia(config, seed=0), dataset, train_config))
        record = {
            "kind": "block_locality",
            "shops": PARTITION_SHOPS,
            "epochs": PARTITION_EPOCHS,
            "n_shards": N_SHARDS,
            "depth": DEPTH,
            "cpu_count": os.cpu_count(),
            "seq_seconds": seq_seconds,
            "rows_read_one_block": sum(
                partition_graph(dataset.graph, 1).rows_read(DEPTH, active)),
        }
        for method in ("bfs", "hash"):
            trainer = ParallelTrainer(
                Gaia(config, seed=0), dataset, train_config,
                n_shards=N_SHARDS, partition_method=method,
            )
            history, seconds = timed_fit(trainer)
            record[method] = {
                "seconds": seconds,
                "rows_read": sum(trainer.partition.rows_read(DEPTH, active)),
                "loss_max_rel_diff": float(np.max(
                    np.abs(np.subtract(history.train_loss, seq_history.train_loss))
                    / np.abs(seq_history.train_loss))),
                "partition": trainer.partition.summary(),
            }
        return record

    record = run_once(benchmark, run)
    bfs, baseline = record["bfs"], record["hash"]
    print(
        f"\nblock locality ({record['shops']} shops, K={N_SHARDS}, "
        f"L={DEPTH}): rows read one block {record['rows_read_one_block']}, "
        f"bfs {bfs['rows_read']}, hash {baseline['rows_read']}; seconds seq "
        f"{record['seq_seconds']:.2f}, bfs {bfs['seconds']:.2f}, hash "
        f"{baseline['seconds']:.2f}; loss rel diff bfs "
        f"{bfs['loss_max_rel_diff']:.1e}, hash {baseline['loss_max_rel_diff']:.1e}"
    )
    assert bfs["loss_max_rel_diff"] <= 1e-9
    assert baseline["loss_max_rel_diff"] <= 1e-9
    assert bfs["rows_read"] <= baseline["rows_read"]
    _append_artifact(record)
