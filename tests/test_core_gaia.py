"""Tests for the full Gaia model and its ablation variants."""

import numpy as np
import pytest

from repro.core import (
    Gaia,
    GaiaConfig,
    GaiaNoFFL,
    GaiaNoITA,
    GaiaNoTEL,
    build_gaia_variant,
)
from repro.data import MarketplaceConfig, build_dataset, build_marketplace
from repro.graph import ego_subgraphs
from repro.graph.sampling import receptive_layout
from repro.nn import engine
from repro.nn.tensor import no_grad
from repro.obs.clock import FakeClock
from repro.serving import ServiceTimeModel, build_disjoint_batch, gather_batch

from helpers import forall


def trimmed_batch(dataset, centers, depth):
    """What the gateway hands a ``depth``-layer model for ``centers``."""
    layout = receptive_layout(dataset.graph, centers, depth, labelled=True)
    return gather_batch(layout, centers, dataset.test)


@pytest.fixture(scope="module")
def dataset():
    market = build_marketplace(MarketplaceConfig(num_shops=40, seed=17))
    return build_dataset(market)


@pytest.fixture(scope="module")
def config(dataset):
    return GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
        channels=8,
        num_scales=2,
    )


class TestGaiaForward:
    def test_output_shape(self, dataset, config):
        model = Gaia(config, seed=0)
        out = model(dataset.test, dataset.graph)
        assert out.shape == (dataset.test.num_shops, dataset.horizon)

    def test_deterministic_given_seed(self, dataset, config):
        a = Gaia(config, seed=3)(dataset.test, dataset.graph).data
        b = Gaia(config, seed=3)(dataset.test, dataset.graph).data
        assert np.allclose(a, b)

    def test_different_seeds_differ(self, dataset, config):
        a = Gaia(config, seed=3)(dataset.test, dataset.graph).data
        b = Gaia(config, seed=4)(dataset.test, dataset.graph).data
        assert not np.allclose(a, b)

    def test_relu_head_nonnegative(self, dataset, config):
        import dataclasses
        relu_cfg = dataclasses.replace(config, final_activation="relu")
        model = Gaia(relu_cfg, seed=0)
        out = model(dataset.test, dataset.graph)
        assert np.all(out.data >= 0.0)

    def test_identity_head_signed(self, dataset, config):
        model = Gaia(config, seed=0)
        out = model(dataset.test, dataset.graph)
        assert (out.data < 0).any() or (out.data > 0).any()

    def test_attention_caches_populated(self, dataset, config):
        model = Gaia(config, seed=0)
        with no_grad():
            model(dataset.test, dataset.graph)
        assert model.intra_attention() is not None
        assert model.inter_attention() is not None
        assert model.neighbor_alpha() is not None
        assert model.inter_attention().shape[0] == dataset.graph.num_edges

    def test_graph_influences_prediction(self, dataset, config):
        """Edges must change predictions (the GNN is not a no-op)."""
        from repro.graph import ESellerGraph

        model = Gaia(config, seed=0)
        with no_grad():
            with_graph = model(dataset.test, dataset.graph).data
            empty = ESellerGraph(dataset.graph.num_nodes, [], [])
            without = model(dataset.test, empty).data
        assert not np.allclose(with_graph, without)

    def test_parameter_count_reasonable(self, dataset, config):
        model = Gaia(config, seed=0)
        count = model.num_parameters()
        assert 1000 < count < 100_000

    def test_backward_reaches_every_parameter(self, dataset, config):
        model = Gaia(config, seed=0)
        out = model(dataset.test, dataset.graph)
        (out * out).sum().backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert not missing, f"no gradient for: {missing}"


class TestTrimmedForward:
    """``model(batch, graph, trim)`` == the center rows of the whole-ego
    forward, for what :func:`gather_batch` lays out."""

    def test_equals_center_rows_of_the_full_forward(self, dataset, config):
        """Random center batches (repeats allowed), ``L`` 1–3 against
        whole egos ``L`` or ``L + 1`` hops deep (every row a center reads
        is in them), all four Table II variants.
        Required: 1e-12 (every kernel is row- or segment-wise; only
        BLAS choosing another blocking for another row count moves a
        last bit).  With no edge into any center the forward is the intra path
        alone, and that is bit for bit."""
        import dataclasses
        variants = (Gaia, GaiaNoITA, GaiaNoFFL, GaiaNoTEL)
        models = {
            (variant, layers): variant(
                dataclasses.replace(config, num_layers=layers),
                seed=layers).eval()
            for variant in variants for layers in (1, 2, 3)
        }
        seen = {"isolated": 0, "edges": 0, "deep": 0}
        seen.update(dict.fromkeys(variants, 0))

        unread = np.flatnonzero(dataset.graph.in_degrees() == 0)

        def gen(rng: np.random.Generator):
            centers = rng.integers(0, dataset.graph.num_nodes,
                                   size=int(rng.integers(1, 10)))
            if rng.random() < 0.2:      # centers nothing links into
                centers = rng.choice(unread, size=int(rng.integers(1, 4)))
            layers = int(rng.integers(1, 4))
            return (centers, layers + int(rng.integers(0, 2)), layers,
                    variants[int(rng.integers(0, len(variants)))])

        def prop(case):
            centers, hops, layers, variant = case
            model = models[variant, layers]
            assert model.receptive_depth == layers
            egos = ego_subgraphs(dataset.graph, centers, hops)
            whole = build_disjoint_batch(egos, dataset.test)
            cut = trimmed_batch(dataset, centers, model.receptive_depth)
            with engine.inference_mode():
                want = model(whole.batch, whole.graph).data[whole.center_rows]
                got = model(cut.batch, cut.graph,
                            (cut.rows_within, cut.edges_into)).data
            assert got.shape == (centers.size, dataset.horizon)
            if cut.edges_into[-1] == 0:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            seen["isolated"] += int(cut.edges_into[-1] == 0)
            seen["edges"] += int(cut.edges_into[0] > 0)
            seen["deep"] += int(layers > 1 and cut.edges_into[0] > 0
                                and cut.rows_within[-1] > cut.rows_within[1])
            seen[variant] += int(cut.edges_into[0] > 0)

        forall(gen, prop, trials=80, seed=41, name="trimmed == full[centers]")
        assert all(count >= 3 for count in seen.values()), seen

    def test_trimmed_forward_leaves_the_introspection_captures(
            self, dataset, config):
        """The attention maps describe the last *full* forward: maps over
        a receptive prefix would not be indexed by the graph's edges."""
        model = Gaia(config, seed=0).eval()
        assert model.inter_attention() is None
        with no_grad():
            model(dataset.test, dataset.graph)
        before = (model.intra_attention(), model.inter_attention(),
                  model.neighbor_alpha())
        shapes = [array.shape for array in before]
        cau_before = [layer.cau.last_attention for layer in model.layers]
        cut = trimmed_batch(dataset, [1, 5, 5], model.receptive_depth)
        assert cut.edges_into[0] > 0
        with engine.inference_mode():
            model(cut.batch, cut.graph, (cut.rows_within, cut.edges_into))
        after = (model.intra_attention(), model.inter_attention(),
                 model.neighbor_alpha())
        assert all(a is b for a, b in zip(after, before))
        assert [array.shape for array in after] == shapes
        assert after[1].shape[0] == dataset.graph.num_edges
        assert all(layer.cau.last_attention is kept
                   for layer, kept in zip(model.layers, cau_before))

    def test_every_variant_declares_its_depth(self, dataset, config):
        """All four Table II variants train and serve trimmed; a model
        that declares nothing cannot be handed a trim by mistake."""
        for variant in (Gaia, GaiaNoITA, GaiaNoFFL, GaiaNoTEL):
            assert variant(config, seed=0).receptive_depth == config.num_layers
        model = ServiceTimeModel(Gaia(config, seed=0).eval(), FakeClock(), 0.0)
        assert model.receptive_depth is None
        cut = trimmed_batch(dataset, [1], config.num_layers)
        with pytest.raises(TypeError), engine.inference_mode():
            model(cut.batch, cut.graph, (cut.rows_within, cut.edges_into))


class TestVariants:
    @pytest.mark.parametrize("cls", [GaiaNoITA, GaiaNoFFL, GaiaNoTEL])
    def test_variant_forward(self, dataset, config, cls):
        model = cls(config, seed=0)
        out = model(dataset.test, dataset.graph)
        assert out.shape == (dataset.test.num_shops, dataset.horizon)

    def test_no_ita_has_no_cau(self, config):
        model = GaiaNoITA(config, seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert not any("cau" in n for n in names)

    def test_no_ffl_fuses_with_single_projection(self, config):
        model = GaiaNoFFL(config, seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert not any(n.startswith("ffl.w_f") for n in names)

    def test_no_tel_single_kernel(self, config):
        model = GaiaNoTEL(config, seed=0)
        assert model.tel.capture.width == 4
        assert model.tel.capture.out_channels == config.channels

    def test_factory(self, config):
        assert isinstance(build_gaia_variant("gaia", config), Gaia)
        assert isinstance(build_gaia_variant("gaia_no_ita", config), GaiaNoITA)
        with pytest.raises(KeyError):
            build_gaia_variant("gaia_no_everything", config)

    def test_variants_differ_from_full_model(self, dataset, config):
        full = Gaia(config, seed=0)(dataset.test, dataset.graph).data
        for cls in (GaiaNoITA, GaiaNoFFL, GaiaNoTEL):
            variant = cls(config, seed=0)(dataset.test, dataset.graph).data
            assert not np.allclose(full, variant)
