"""Cross-module invariants: properties that must hold by construction.

These catch subtle wiring bugs that unit tests miss: permutation
equivariance of the graph layers, invariance of predictions to the
order of edges, scaling consistency between batches, and agreement
between full-graph and subgraph computation.
"""

import numpy as np
import pytest

from repro.core import Gaia, GaiaConfig, ITAGCNLayer
from repro.data import MarketplaceConfig, build_dataset, build_marketplace
from repro.graph import ESellerGraph
from repro.nn.tensor import Tensor, no_grad


@pytest.fixture(scope="module")
def dataset():
    market = build_marketplace(MarketplaceConfig(num_shops=30, seed=37))
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
        num_layers=1,
    )


class TestPermutationEquivariance:
    def test_ita_gcn_layer_equivariant(self, config):
        """Relabeling nodes permutes the layer output identically."""
        rng = np.random.default_rng(0)
        n = 7
        graph = ESellerGraph(n, src=[0, 1, 2, 5], dst=[1, 2, 3, 6])
        layer = ITAGCNLayer(config, np.random.default_rng(1))
        h = rng.normal(size=(n, config.input_window, config.channels))

        perm = rng.permutation(n)
        inv = np.argsort(perm)
        permuted_graph = ESellerGraph(n, perm[graph.src], perm[graph.dst],
                                      graph.edge_types)
        with no_grad():
            out = layer(Tensor(h), graph).data
            out_perm = layer(Tensor(h[inv]), permuted_graph).data
        assert np.allclose(out_perm[perm], out, atol=1e-10)

    def test_edge_order_irrelevant(self, config):
        """Shuffling the edge list never changes the output."""
        rng = np.random.default_rng(2)
        n = 6
        src = np.array([0, 1, 2, 3, 4])
        dst = np.array([1, 2, 3, 4, 5])
        layer = ITAGCNLayer(config, np.random.default_rng(3))
        h = Tensor(rng.normal(size=(n, config.input_window, config.channels)))
        order = rng.permutation(src.size)
        with no_grad():
            a = layer(h, ESellerGraph(n, src, dst)).data
            b = layer(h, ESellerGraph(n, src[order], dst[order])).data
        assert np.allclose(a, b, atol=1e-10)


class TestSubgraphConsistency:
    def test_component_subgraph_matches_full(self, config):
        """Computing on a connected component alone equals the full-graph
        computation restricted to that component (no cross-component
        influence can exist)."""
        rng = np.random.default_rng(4)
        n = 8
        # Two components: {0,1,2} chain and {3..7} chain.
        graph = ESellerGraph(n, src=[0, 1, 3, 4, 5, 6], dst=[1, 2, 4, 5, 6, 7])
        component = ESellerGraph(3, src=[0, 1], dst=[1, 2])
        layer = ITAGCNLayer(config, np.random.default_rng(5))
        h = rng.normal(size=(n, config.input_window, config.channels))
        with no_grad():
            full = layer(Tensor(h), graph).data
            local = layer(Tensor(h[:3]), component).data
        assert np.allclose(local, full[:3], atol=1e-10)


class TestScalingConsistency:
    def test_labels_scaled_consistent_with_inverse(self, dataset):
        batch = dataset.test
        assert np.allclose(
            batch.inverse_scale(batch.labels_scaled), batch.labels, rtol=1e-6
        )

    def test_train_and_test_share_scaler(self, dataset):
        assert dataset.train[0].scaler is dataset.test.scaler

    def test_prediction_pipeline_monotone(self, dataset, config):
        """Larger scaled outputs always mean larger raw forecasts."""
        batch = dataset.test
        low = batch.inverse_scale(np.zeros_like(batch.labels))
        high = batch.inverse_scale(np.ones_like(batch.labels))
        assert np.all(high >= low)


class TestModelSerialization:
    def test_gaia_roundtrip_preserves_predictions(self, dataset, config):
        model = Gaia(config, seed=0)
        with no_grad():
            before = model(dataset.test, dataset.graph).data
        state = model.state_dict()
        clone = Gaia(config, seed=123)
        clone.load_state_dict(state)
        with no_grad():
            after = clone(dataset.test, dataset.graph).data
        assert np.allclose(before, after)

    def test_state_dict_names_stable(self, config):
        a = set(Gaia(config, seed=0).state_dict())
        b = set(Gaia(config, seed=1).state_dict())
        assert a == b
