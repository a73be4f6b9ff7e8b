"""Block-accumulating training: equivalence and structure tests.

The load-bearing guarantee: a :class:`~repro.training.parallel.ParallelTrainer`
step — one weighted ``masked_loss`` per owner block of the loss rows, on
the full graph — leaves the gradient of the sequential
:class:`~repro.training.trainer.Trainer` step in ``param.grad``, for any
graph, role mask, assignment and model depth.  At ``n_shards ∈ {1, 2, 4}``
it reproduces the sequential 30-epoch loss trajectory to ``rtol=1e-9``
(bit for bit at one shard).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import Gaia, GaiaConfig
from repro.data import MarketplaceConfig, build_dataset, build_marketplace
from repro.graph import ESellerGraph
from repro.partition import GraphPartition, partition_graph
from repro.training import ParallelTrainer, TrainConfig, Trainer

from helpers import forall


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


def train_config(epochs=30):
    return TrainConfig(epochs=epochs, patience=epochs, min_epochs=2,
                       learning_rate=7e-3)


def one_step(trainer):
    """``(loss, gradients)`` of one train step on the first batch (a
    parameter nothing reached reports zeros)."""
    trainer.model.zero_grad()
    loss = trainer._train_step_loss(0, trainer.dataset.train[0])
    return loss, [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                  for p in trainer.model.parameters()]


@pytest.fixture(scope="module")
def sequential_history(dataset):
    trainer = Trainer(make_model(dataset), dataset, train_config())
    history = trainer.fit()
    return history, trainer.model.state_dict()


class TestBlockStep:
    def test_block_step_is_the_sequential_gradient(self, dataset):
        """Random graph, role mask and assignment into K ∈ {1..5}: the
        weighted block gradients sum to one sequential step's."""
        n = dataset.graph.num_nodes
        observed = dataset.train[0].mask.any(axis=1)
        seen = {"empty": 0, "no in-edges": 0, "every loss row": 0}

        def gen(rng):
            k = int(rng.integers(1, 6))
            assignment = np.arange(n) % k
            rng.shuffle(assignment)
            role = rng.random(n) < rng.uniform(0.2, 0.9)
            if rng.random() < 0.3:
                # every loss row in the last shard; the others own one
                # node each, outside the role
                others = rng.choice(n, k - 1, replace=False)
                assignment[:] = k - 1
                assignment[others] = np.arange(k - 1)
                role[others] = False
            elif k > 1 and rng.random() < 0.5:
                role[assignment == 0] = False            # an empty block
            if not (role & observed).any():
                role[np.flatnonzero(observed & (assignment == k - 1))[0]] = True
            num_edges = int(rng.integers(0, 4 * n))
            src = rng.integers(0, n, num_edges)
            dst = rng.integers(0, n, num_edges)
            if rng.random() < 0.5:                       # a block read from nowhere
                keep = assignment[dst] != k - 1
                src, dst = src[keep], dst[keep]
            graph = ESellerGraph(n, src, dst, rng.integers(0, 3, src.size))
            return graph, role, assignment, int(rng.integers(1, 3))

        def prop(case):
            graph, role, assignment, depth = case
            data = dataclasses.replace(dataset, graph=graph, train_nodes=role)
            partition = GraphPartition.from_assignment(graph, assignment)
            active = data.active_mask(data.train[0], "train")
            for block in partition.blocks(active):
                if not block.any():
                    seen["empty"] += 1
                elif not np.isin(graph.dst, np.flatnonzero(block)).any():
                    seen["no in-edges"] += 1
                if partition.num_partitions > 1 and block.sum() == active.sum():
                    seen["every loss row"] += 1
            want_loss, want = one_step(Trainer(make_model(data, depth), data))
            got_loss, got = one_step(ParallelTrainer(
                make_model(data, depth), data, partition=partition))
            if partition.num_partitions == 1:
                assert got_loss == want_loss
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
            scale = max(np.abs(w).max() for w in want)
            for g, w in zip(got, want):
                assert np.abs(g - w).max() <= 1e-12 * scale, (
                    np.abs(g - w).max(), scale)
            assert abs(got_loss - want_loss) <= 1e-12 * want_loss

        forall(gen, prop, trials=30, seed=41, name="block step gradient")
        assert all(seen.values()), seen

    def test_blocks_cover_role_masks_once(self, dataset):
        """Across blocks, each role's active rows are covered exactly
        once — no loss term dropped, none double-counted."""
        partition = partition_graph(dataset.graph, 4)
        for role in ("train", "val", "test"):
            active = dataset.active_mask(dataset.test, role)
            covered = np.sum(partition.blocks(active), axis=0)
            assert np.array_equal(covered, active.astype(int))


class TestLossTrajectoryEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sim_mode_matches_sequential(self, dataset, sequential_history,
                                         n_shards):
        seq_history, seq_state = sequential_history
        trainer = ParallelTrainer(
            make_model(dataset), dataset, train_config(), n_shards=n_shards,
        )
        history = trainer.fit()
        assert history.epochs_run == seq_history.epochs_run
        assert history.best_epoch == seq_history.best_epoch
        if n_shards == 1:
            assert history.train_loss == seq_history.train_loss
            assert history.val_loss == seq_history.val_loss
        np.testing.assert_allclose(
            history.train_loss, seq_history.train_loss, rtol=1e-9, atol=0
        )
        np.testing.assert_allclose(
            history.val_loss, seq_history.val_loss, rtol=1e-9, atol=0
        )
        # Some biases have a gradient that is zero but for rounding (their
        # values stay near 1e-12): weights get an absolute floor.
        for name, value in trainer.model.state_dict().items():
            np.testing.assert_allclose(
                value, seq_state[name], rtol=1e-9, atol=1e-9, err_msg=name
            )


class TestParallelTrainerAPI:
    def test_evaluate_matches_sequential_contract(self, dataset):
        trainer = ParallelTrainer(make_model(dataset), dataset,
                                  train_config(epochs=2), n_shards=2)
        trainer.fit()
        table = trainer.evaluate()
        assert "overall" in table
        assert np.isfinite(table["overall"]["MAE"])

    def test_mismatched_partition_rejected(self, dataset):
        other = build_dataset(
            build_marketplace(MarketplaceConfig(num_shops=20, seed=1))
        )
        partition = partition_graph(other.graph, 2)
        with pytest.raises(ValueError):
            ParallelTrainer(make_model(dataset), dataset, partition=partition)

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
        # The straggler report the hub federates: per-block seconds.
        hub = MetricsHub()
        hub.attach_parallel(sharded)
        rows = {row["name"]: row["value"] for row in hub.collect()}
        assert rows["train_steps"] == 2 * len(dataset.train)
        assert rows["shard0_step_seconds"] > 0 and rows["shard1_step_seconds"] > 0
