"""Sharded data-parallel training: equivalence and structure tests.

The load-bearing guarantee (ISSUE 2 acceptance): the
:class:`~repro.training.parallel.ParallelTrainer` in deterministic
simulation mode, at ``n_shards ∈ {1, 2, 4}``, reproduces the sequential
:class:`~repro.training.trainer.Trainer`'s loss trajectory within 1e-6
on a fixed-seed dataset — same losses, same early stopping, same final
weights — because count-weighted shard gradients equal the global
full-batch gradient when halos cover the model's receptive field.
"""

import numpy as np
import pytest

from repro.core import Gaia, GaiaConfig
from repro.data import MarketplaceConfig, build_dataset, build_marketplace
from repro.partition import partition_graph
from repro.training import (
    ParallelTrainer,
    ShardedDataset,
    TrainConfig,
    Trainer,
)

TOLERANCE = 1e-6


@pytest.fixture(scope="module")
def dataset():
    market = build_marketplace(MarketplaceConfig(num_shops=48, seed=23))
    return build_dataset(market)


def make_model(dataset, num_layers=2):
    config = GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
        channels=8,
        num_scales=2,
        num_layers=num_layers,
    )
    return Gaia(config, seed=0)


def train_config(epochs=8):
    return TrainConfig(epochs=epochs, patience=30, min_epochs=2,
                       learning_rate=7e-3)


@pytest.fixture(scope="module")
def sequential_history(dataset):
    trainer = Trainer(make_model(dataset), dataset, train_config())
    history = trainer.fit()
    return history, trainer.model.state_dict()


class TestLossTrajectoryEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sim_mode_matches_sequential(self, dataset, sequential_history,
                                         n_shards):
        seq_history, seq_state = sequential_history
        trainer = ParallelTrainer(
            make_model(dataset), dataset, train_config(),
            n_shards=n_shards, mode="sim",
        )
        history = trainer.fit()
        assert history.epochs_run == seq_history.epochs_run
        assert history.best_epoch == seq_history.best_epoch
        np.testing.assert_allclose(
            history.train_loss, seq_history.train_loss, atol=TOLERANCE
        )
        np.testing.assert_allclose(
            history.val_loss, seq_history.val_loss, atol=TOLERANCE
        )
        for name, value in trainer.model.state_dict().items():
            np.testing.assert_allclose(
                value, seq_state[name], atol=TOLERANCE, err_msg=name
            )

    def test_process_mode_matches_sim(self, dataset):
        """Transport must not change numerics: forked workers produce the
        same trajectory as in-process simulation."""
        cfg = train_config(epochs=3)
        sim = ParallelTrainer(make_model(dataset), dataset, cfg,
                              n_shards=2, mode="sim", seed=1)
        sim_history = sim.fit()
        proc = ParallelTrainer(make_model(dataset), dataset, cfg,
                               n_shards=2, mode="process", seed=1)
        proc_history = proc.fit()
        np.testing.assert_allclose(
            proc_history.train_loss, sim_history.train_loss, atol=1e-12
        )
        np.testing.assert_allclose(
            proc_history.val_loss, sim_history.val_loss, atol=1e-12
        )

    def test_insufficient_halo_changes_numerics(self, dataset):
        """halo_hops below the model depth must NOT silently agree: the
        equivalence genuinely depends on complete ghost zones."""
        cfg = train_config(epochs=3)
        seq = Trainer(make_model(dataset), dataset, cfg)
        seq_history = seq.fit()
        starved = ParallelTrainer(make_model(dataset), dataset, cfg,
                                  n_shards=4, mode="sim", halo_hops=0)
        starved_history = starved.fit()
        diff = np.max(np.abs(
            np.asarray(starved_history.train_loss)
            - np.asarray(seq_history.train_loss)
        ))
        assert diff > 1e-9

    def test_halo_hops_inferred_from_model(self, dataset):
        trainer = ParallelTrainer(make_model(dataset, num_layers=2), dataset,
                                  train_config(epochs=1), n_shards=2)
        assert trainer.partition.halo_hops == 2

    def test_shallow_prebuilt_partition_rejected(self, dataset):
        """A prebuilt partition whose halo is thinner than the model's
        receptive field must be refused, not silently trained."""
        shallow = partition_graph(dataset.graph, 2, halo_hops=1)
        with pytest.raises(ValueError, match="below the model"):
            ParallelTrainer(make_model(dataset, num_layers=2), dataset,
                            train_config(epochs=1), partition=shallow)
        # explicit halo_hops is the documented expert opt-out
        trainer = ParallelTrainer(make_model(dataset, num_layers=2), dataset,
                                  train_config(epochs=1), partition=shallow,
                                  halo_hops=1)
        assert trainer.partition is shallow


class TestShardedDataset:
    def test_role_masks_partition_global_masks(self, dataset):
        """Across shards, owned role masks cover each global role mask
        exactly once — no loss term dropped, none double-counted."""
        partition = partition_graph(dataset.graph, 4, halo_hops=2)
        sharded = ShardedDataset(dataset, partition)
        for role in ("train", "val", "test"):
            covered = np.zeros(dataset.graph.num_nodes, dtype=np.int64)
            for shard in sharded.shards:
                local = shard.dataset.node_mask(role)
                covered[shard.nodes[local]] += 1
            global_mask = dataset.node_mask(role)
            assert np.array_equal(covered > 0, global_mask)
            assert covered.max() <= 1

    def test_local_batches_are_row_slices(self, dataset):
        partition = partition_graph(dataset.graph, 3, halo_hops=1)
        sharded = ShardedDataset(dataset, partition)
        for shard in sharded.shards:
            np.testing.assert_array_equal(
                shard.dataset.test.series, dataset.test.series[shard.nodes]
            )
            np.testing.assert_array_equal(
                shard.dataset.test.labels, dataset.test.labels[shard.nodes]
            )
            assert shard.dataset.graph.num_nodes == shard.nodes.size

    def test_replication_factor_reported(self, dataset):
        partition = partition_graph(dataset.graph, 2, halo_hops=2)
        sharded = ShardedDataset(dataset, partition)
        assert sharded.replication_factor() >= 1.0

    def test_mismatched_graph_rejected(self, dataset):
        other = build_dataset(
            build_marketplace(MarketplaceConfig(num_shops=20, seed=1))
        )
        partition = partition_graph(other.graph, 2)
        with pytest.raises(ValueError):
            ShardedDataset(dataset, partition)


class TestParallelTrainerAPI:
    def test_evaluate_matches_sequential_contract(self, dataset):
        trainer = ParallelTrainer(make_model(dataset), dataset,
                                  train_config(epochs=2), n_shards=2)
        trainer.fit()
        table = trainer.evaluate()
        assert "overall" in table
        assert np.isfinite(table["overall"]["MAE"])

    def test_sharded_fit_records_the_sequential_span_tree(self, dataset):
        """Regression: a sharded fit opened ``train.step`` roots but never
        the ``train.epoch`` span around them, so validation time had no
        address in a sharded run.  One inherited loop → one tree."""
        from repro.obs import MetricsHub, Tracer, use_tracer

        def train_tree(span):
            return (span.name, [train_tree(child) for child in span.children
                                if child.name.startswith("train.")])

        def traced_fit(trainer):
            tracer = Tracer()
            with use_tracer(tracer):
                trainer.fit()
            return [train_tree(root) for root in tracer.roots]

        steps = ("train.step", [])
        expected = [("train.epoch", [steps] * len(dataset.train))] * 2
        sequential = Trainer(make_model(dataset), dataset, train_config(epochs=2))
        sharded = ParallelTrainer(make_model(dataset), dataset,
                                  train_config(epochs=2), n_shards=2)
        assert traced_fit(sequential) == expected
        assert traced_fit(sharded) == expected
        # The straggler report the hub federates is untouched by the merge.
        hub = MetricsHub()
        hub.attach_parallel(sharded)
        rows = {row["name"]: row["value"] for row in hub.collect()}
        assert rows["train_steps"] == 2 * len(dataset.train)
        assert rows["shard0_step_seconds"] > 0 and rows["shard1_step_seconds"] > 0

    def test_unknown_mode_rejected(self, dataset):
        with pytest.raises(ValueError, match="unknown mode"):
            ParallelTrainer(make_model(dataset), dataset, n_shards=2,
                            mode="threads")
