"""Tests for metrics, trainer, the trimmed training loss and grid search."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Gaia, GaiaConfig
from repro.data import MarketplaceConfig, build_dataset, build_marketplace
from repro.data.dataset import InstanceBatch
from repro.graph import ESellerGraph
from repro.graph.sampling import receptive_layout
from repro.nn import functional as F
from repro.training import (
    ParallelTrainer,
    TrainConfig,
    Trainer,
    evaluate_forecast,
    grid_search,
    mae,
    mape,
    rmse,
)
from repro.training import trainer as trainer_module
from repro.training.trainer import masked_loss, masked_mse

from helpers import PropertyError, forall, random_eseller_graph


@pytest.fixture(scope="module")
def dataset():
    market = build_marketplace(MarketplaceConfig(num_shops=40, seed=23))
    return build_dataset(market, train_fraction=0.6, val_fraction=0.2)


def small_gaia(dataset, channels=8, num_layers=1, **overrides):
    config = GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
        channels=channels,
        num_scales=2,
        num_layers=num_layers,
        **overrides,
    )
    return Gaia(config, seed=0)


class TestMetrics:
    def test_mae(self):
        assert mae(np.array([1.0, 3.0]), np.array([0.0, 0.0])) == 2.0

    def test_rmse(self):
        assert rmse(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(
            np.sqrt(12.5)
        )

    def test_mape_ignores_near_zero_truth(self):
        pred = np.array([10.0, 100.0])
        true = np.array([0.0, 50.0])
        assert mape(pred, true) == pytest.approx(1.0)  # only second entry

    def test_mape_all_zero_truth_nan(self):
        assert np.isnan(mape(np.ones(3), np.zeros(3)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mae(np.ones(2), np.ones(3))

    def test_evaluate_forecast_columns(self):
        pred = np.ones((4, 3))
        true = np.ones((4, 3)) * 2
        table = evaluate_forecast(pred, true, ["Oct", "Nov", "Dec"])
        assert set(table) == {"Oct", "Nov", "Dec", "overall"}
        assert table["Oct"]["MAE"] == 1.0
        assert table["overall"]["MAPE"] == pytest.approx(0.5)

    def test_evaluate_forecast_shop_mask(self):
        pred = np.array([[1.0], [100.0]])
        true = np.array([[1.0], [1.0]])
        table = evaluate_forecast(pred, true, ["h"], shop_mask=np.array([True, False]))
        assert table["h"]["MAE"] == 0.0

    def test_evaluate_forecast_validates(self):
        with pytest.raises(ValueError):
            evaluate_forecast(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            evaluate_forecast(np.ones((2, 2)), np.ones((2, 2)), ["a"])

    @given(st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_property_mae_le_rmse(self, n):
        rng = np.random.default_rng(n)
        pred = rng.normal(size=n)
        true = rng.normal(size=n)
        assert mae(pred, true) <= rmse(pred, true) + 1e-12

    @given(st.floats(2.0, 1e6), st.floats(0.0, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_property_mape_scale_invariant(self, scale, ratio):
        true = np.array([scale])
        pred = np.array([scale * ratio])
        assert mape(pred, true) == pytest.approx(abs(1 - ratio), abs=1e-9)


class TestTrainer:
    def test_loss_decreases(self, dataset):
        model = small_gaia(dataset)
        trainer = Trainer(model, dataset, TrainConfig(epochs=15, patience=20,
                                                      min_epochs=15))
        history = trainer.fit()
        assert history.train_loss[-1] < history.train_loss[0]

    def test_early_stopping_and_best_restore(self, dataset):
        model = small_gaia(dataset)
        trainer = Trainer(model, dataset,
                          TrainConfig(epochs=200, patience=3, min_epochs=1))
        history = trainer.fit()
        assert history.epochs_run <= 200
        assert 0 <= history.best_epoch < history.epochs_run

    def test_evaluate_respects_roles(self, dataset):
        model = small_gaia(dataset)
        trainer = Trainer(model, dataset, TrainConfig(epochs=2, min_epochs=1))
        trainer.fit()
        test_table = trainer.evaluate()
        val_table = trainer.evaluate(role="val")
        assert test_table["overall"]["MAE"] != val_table["overall"]["MAE"]

    def test_evaluate_picks_the_batch_of_its_role(self, dataset):
        """``role`` names the batch as well as the node mask; a role
        without one batch of its own needs ``batch=``."""
        model = small_gaia(dataset)
        trainer = Trainer(model, dataset, TrainConfig(epochs=1, min_epochs=1))
        # One cutoff in a shop split: tell the batches apart by content.
        shifted = dataclasses.replace(dataset, val=dataclasses.replace(
            dataset.val, labels=dataset.val.labels * 2.0))
        trainer.dataset = shifted
        assert trainer.evaluate(role="val") == trainer.evaluate(
            shifted.val, role="val")
        assert trainer.evaluate(role="val") != trainer.evaluate(
            shifted.test, role="val")
        assert trainer.evaluate(role="test") == trainer.evaluate(
            shifted.test, role="test")
        with pytest.raises(ValueError, match="no default batch"):
            trainer.evaluate(role="train")
        table = trainer.evaluate(shifted.train[0], role="train")
        assert np.isfinite(table["overall"]["MAE"])

    def test_predict_raw_units(self, dataset):
        model = small_gaia(dataset)
        trainer = Trainer(model, dataset, TrainConfig(epochs=2, min_epochs=1))
        trainer.fit()
        preds = trainer.predict_raw(dataset.test)
        assert preds.shape == dataset.test.labels.shape
        assert np.all(preds >= 0)

    def test_history_records_epochs(self, dataset):
        model = small_gaia(dataset)
        trainer = Trainer(model, dataset,
                          TrainConfig(epochs=4, patience=10, min_epochs=4))
        history = trainer.fit()
        assert history.epochs_run == 4
        assert len(history.val_loss) == 4
        assert history.seconds > 0


class WholeGraphGaia(Gaia):
    """The trajectory oracle: the same model declaring no depth, so
    ``masked_loss`` hands it the whole graph — the forward every trainer
    ran before the loss trimmed."""

    receptive_depth = None


def whole_graph_loss(model, graph, batch, active):
    """The loss oracle: Eq. 10 over the rows ``active`` of a forward that
    computes every row from every edge."""
    pred = model(batch, graph)
    return F.mse_loss(pred[active], batch.labels_scaled[active])


def random_training_case(rng: np.random.Generator):
    """A random graph, feature batch and loss-row mask, depth 1–3.

    The mask kinds are the corners: a random subset, every row, rows no
    edge leads into, and a single row (most of the graph dropped)."""
    graph = random_eseller_graph(rng, max_nodes=24, max_edges=60, min_nodes=2)
    n, window, horizon = graph.num_nodes, 6, 2
    batch = InstanceBatch(
        cutoff=0, series=rng.random((n, window)),
        series_scaled=rng.normal(size=(n, window)),
        mask=np.ones((n, window), dtype=bool),
        temporal=rng.normal(size=(n, window, 2)),
        static=rng.normal(size=(n, 3)), labels=rng.random((n, horizon)),
        labels_scaled=rng.normal(size=(n, horizon)), levels=rng.normal(size=n),
        scaler=None)
    kind = ("random", "all", "no_in_edges", "single")[int(rng.integers(0, 4))]
    if kind == "all":
        active = np.ones(n, dtype=bool)
    elif kind == "no_in_edges":
        active = np.bincount(graph.dst, minlength=n) == 0
    elif kind == "single":
        active = np.arange(n) == int(rng.integers(0, n))
    else:
        active = rng.random(n) < 0.5
    if not active.any():
        active[int(rng.integers(0, n))] = True
    return graph, batch, active, int(rng.integers(1, 4)), kind


def gaia_for(batch: InstanceBatch, depth: int, cls=Gaia) -> Gaia:
    config = GaiaConfig(
        input_window=batch.input_window, horizon=batch.horizon,
        temporal_dim=batch.temporal.shape[-1],
        static_dim=batch.static.shape[-1], channels=4, num_scales=2,
        num_layers=depth)
    return cls(config, seed=depth).train()


def loss_and_grads(loss_fn, model):
    model.zero_grad()
    loss = loss_fn()
    loss.backward()
    return loss.item(), [np.zeros_like(p.data) if p.grad is None
                         else p.grad.copy() for p in model.parameters()]


def assert_trim_equals_oracle(case, seen=None):
    """Loss to 1e-12 relative; every gradient within 1e-12 of the largest
    gradient entry of the model (``cau.conv_k.bias`` adds a per-row
    constant to the logits: its gradient is zero in exact arithmetic and
    1e-18 noise on both sides, so no per-parameter relative bound)."""
    graph, batch, active, depth, kind = case
    model = gaia_for(batch, depth)
    want, want_grads = loss_and_grads(
        lambda: whole_graph_loss(model, graph, batch, active), model)
    got, got_grads = loss_and_grads(
        lambda: masked_loss(model, graph, batch, active), model)
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)
    scale = max(float(np.abs(g).max()) for g in want_grads)
    for param, a, b in zip(model.parameters(), got_grads, want_grads):
        assert np.abs(a - b).max() <= 1e-12 * scale, param.name
    if seen is not None:
        layout = receptive_layout(graph, np.flatnonzero(active), depth)
        seen[kind] += 1
        seen["dropped"] += int(layout.rows.size < graph.num_nodes)
        seen["deep"] += int(depth > 1 and layout.edges_into[0] > 0
                            and layout.rows_within[-1] > layout.rows_within[1])


def one_level_short(graph, seeds, depth):
    """Mutant: the layout of a model one layer shallower (the outermost
    level and the edges out of it are missing)."""
    layout = receptive_layout(graph, seeds, depth - 1)
    return dataclasses.replace(
        layout, rows_within=np.append(layout.rows_within,
                                      layout.rows_within[-1]),
        edges_into=np.append(layout.edges_into, layout.graph.num_edges))


def unstable_row_sort(graph, seeds, depth):
    """Mutant: the loss rows come out in another order than
    ``labels_scaled[active]`` while ``seed_rows`` still says ``arange``."""
    layout = receptive_layout(graph, seeds, depth)
    order = np.arange(layout.rows.size)
    order[:seeds.size] = order[:seeds.size][::-1]
    row_of = np.empty_like(order)
    row_of[order] = np.arange(order.size)
    return dataclasses.replace(
        layout, rows=layout.rows[order], graph=ESellerGraph(
            order.size, row_of[layout.graph.src], row_of[layout.graph.dst],
            layout.graph.edge_types))


def edges_by_level_of_src(graph, seeds, depth):
    """Mutant: the kept edges sorted by the level of their source, so a
    layer's edge prefix is no longer the edges into its output rows."""
    layout = receptive_layout(graph, seeds, depth)
    graph = layout.graph
    level = np.searchsorted(layout.rows_within, graph.src, side="right")
    order = np.argsort(-level, kind="stable")
    return dataclasses.replace(layout, graph=ESellerGraph(
        graph.num_nodes, graph.src[order], graph.dst[order],
        graph.edge_types[order]))


class TestTrainingTrim:
    """``masked_loss`` forwards the receptive prefix of its loss rows and
    equals the whole-graph forward to rounding."""

    def test_trimmed_loss_and_gradients_equal_the_whole_graph_oracle(self):
        seen = dict.fromkeys(
            ("random", "all", "no_in_edges", "single", "dropped", "deep"), 0)
        forall(random_training_case,
               lambda case: assert_trim_equals_oracle(case, seen),
               trials=60, seed=51, name="trimmed loss == whole-graph loss")
        assert all(count >= 3 for count in seen.values()), seen

    @pytest.mark.parametrize("mutant", [
        one_level_short, unstable_row_sort, edges_by_level_of_src])
    def test_a_wrong_layout_is_caught(self, monkeypatch, mutant):
        """The oracle comparison has teeth: each way of getting the
        layout wrong fails it (a broken prefix may also crash a kernel)."""
        monkeypatch.setattr(trainer_module, "receptive_layout", mutant)
        with pytest.raises((PropertyError, IndexError, ValueError)):
            forall(random_training_case, assert_trim_equals_oracle,
                   trials=60, seed=51, name="mutant layout")

    def test_a_model_without_a_depth_gets_the_whole_graph_bit_for_bit(self):
        """``receptive_depth = None``: same batch, same graph object (a
        model may cache by it), the parent's bits."""
        handed = []

        def prop(case):
            graph, batch, active, depth, _ = case
            model = gaia_for(batch, depth, WholeGraphGaia)
            forward = model.forward

            def recording(*inputs):
                handed.append(inputs)
                return forward(*inputs)

            model.forward = recording
            want, want_grads = loss_and_grads(
                lambda: whole_graph_loss(model, graph, batch, active), model)
            got, got_grads = loss_and_grads(
                lambda: masked_loss(model, graph, batch, active), model)
            assert got == want
            assert all(np.array_equal(a, b)
                       for a, b in zip(got_grads, want_grads))
            assert handed[-1][0] is batch and handed[-1][1] is graph
            assert len(handed[-1]) == 2         # no ``trim``

        forall(random_training_case, prop, trials=10, seed=52,
               name="no depth == whole graph")

    def test_train_nodes_none_and_an_empty_role(self, dataset):
        """A time split has no node masks (every active shop is a loss
        row); a role with no active shop answers ``(None, 0)`` without a
        forward."""
        model = small_gaia(dataset, num_layers=2).train()
        unmasked = dataclasses.replace(dataset, train_nodes=None)
        batch = dataset.train[0]
        active = unmasked.active_mask(batch, "train")
        assert active.sum() > dataset.active_mask(batch, "train").sum()
        loss, count = masked_mse(model, unmasked, batch, "train")
        assert count == active.sum()
        want = whole_graph_loss(model, dataset.graph, batch, active).item()
        assert abs(loss.item() - want) <= 1e-12 * want
        nobody = dataclasses.replace(
            dataset, val_nodes=np.zeros(batch.num_shops, dtype=bool))
        model.forward = None            # must not be reached
        assert masked_mse(model, nobody, dataset.val, "val") == (None, 0)

    @pytest.mark.parametrize("make", [
        lambda model, data, cfg: Trainer(model, data, cfg),
        lambda model, data, cfg: ParallelTrainer(model, data, cfg, n_shards=3),
    ], ids=["Trainer", "ParallelTrainer-sim-x3"])
    def test_thirty_epochs_track_the_whole_graph_trajectory(self, dataset,
                                                            make):
        """Planned replay + eager validation, and the owner-block steps
        (each forwarding only what its rows read), against the same
        trainer on a model that declares no depth."""
        cfg = TrainConfig(epochs=30, min_epochs=30, patience=30)
        histories = []
        for cls in (Gaia, WholeGraphGaia):
            model = cls(small_gaia(dataset, num_layers=2).config, seed=0)
            histories.append(make(model, dataset, cfg).fit())
        got, want = histories
        assert got.epochs_run == want.epochs_run == 30
        assert got.best_epoch == want.best_epoch
        np.testing.assert_allclose(got.train_loss, want.train_loss,
                                   rtol=1e-9, atol=0)
        np.testing.assert_allclose(got.val_loss, want.val_loss,
                                   rtol=1e-9, atol=0)

    def test_compiled_plan_attends_only_over_the_receptive_prefix(self,
                                                                  dataset):
        """Count gate: the attention steps of the compiled train plan have
        exactly ``rows_within[d]`` (intra) and ``edges_into[d]`` (inter)
        blocks in their layer — a silent fall-back to the whole graph
        fails here, not only in the benchmark."""
        model = small_gaia(dataset, num_layers=2)
        trainer = Trainer(model, dataset, TrainConfig(epochs=1, min_epochs=1))
        trainer.fit()
        (compiled,) = trainer._compiled.values()
        plan = compiled._plan
        assert plan is not None, compiled.fallback_reason
        blocks = [plan.slot_shapes[step.out][0] for step in plan.steps
                  if step.op == "scaled_masked_softmax"]
        graph = dataset.graph
        layout = receptive_layout(
            graph, np.flatnonzero(dataset.active_mask(dataset.train[0], "train")),
            2)
        rows, edges = layout.rows_within, layout.edges_into
        assert blocks == [rows[1], edges[1], rows[0], edges[0]]
        assert rows[0] + edges[0] < graph.num_nodes + graph.num_edges


class TestGridSearch:
    def test_selects_best_on_validation(self, dataset):
        def factory(channels):
            return small_gaia(dataset, channels=channels)

        result = grid_search(
            factory,
            dataset,
            {"channels": [4, 8]},
            TrainConfig(epochs=3, min_epochs=1),
        )
        assert result.best_params["channels"] in (4, 8)
        assert len(result.trials) == 2
        assert result.best_score == min(t["score"] for t in result.trials)

    def test_validates_inputs(self, dataset):
        with pytest.raises(ValueError):
            grid_search(lambda: None, dataset, {}, None)
        with pytest.raises(ValueError):
            grid_search(lambda: None, dataset, {"a": [1]}, None, metric="R2")
