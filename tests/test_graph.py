"""Tests for the graph substrate (repro.graph)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    EdgeType,
    ESellerGraph,
    bfs_distances,
    connected_components,
    degree_statistics,
    ego_subgraph,
    ego_subgraphs,
    generate_seller_graph,
    k_hop_nodes,
)


@pytest.fixture
def chain_graph():
    """0 -> 1 -> 2 -> 3 plus an owner edge 0 <-> 3."""
    return ESellerGraph(
        4,
        src=[0, 1, 2, 0, 3],
        dst=[1, 2, 3, 3, 0],
        edge_types=[0, 0, 0, 1, 1],
    )


class TestESellerGraph:
    def test_basic_counts(self, chain_graph):
        assert chain_graph.num_nodes == 4
        assert chain_graph.num_edges == 5

    def test_validation_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ESellerGraph(2, src=[0], dst=[5])

    def test_validation_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            ESellerGraph(3, src=[0, 1], dst=[1])
        with pytest.raises(ValueError):
            ESellerGraph(3, src=[0], dst=[1], edge_types=[0, 0])

    def test_negative_num_nodes(self):
        with pytest.raises(ValueError):
            ESellerGraph(-1, [], [])

    def test_edge_type_counts(self, chain_graph):
        counts = chain_graph.edge_type_counts()
        assert counts["supply_chain"] == 3
        assert counts["same_owner"] == 2

    def test_from_edit_history_keeps_addition_order(self):
        graph = ESellerGraph.from_edit_history(
            3,
            src=[0, 1, 2, 0],
            dst=[1, 2, 0, 2],
            edge_types=[0, 1, 2, 0],
            alive=[True, False, True, True],
        )
        assert graph.num_edges == 3
        assert graph.src.tolist() == [0, 2, 0]
        assert graph.dst.tolist() == [1, 0, 2]
        assert graph.edge_types.tolist() == [2 if s == 2 else 0
                                             for s in graph.src]
        with pytest.raises(ValueError):
            ESellerGraph.from_edit_history(3, [0], [1], [0], [True, False])

    def test_in_out_edges(self, chain_graph):
        assert set(chain_graph.src[chain_graph.in_edges(3)]) == {2, 0}
        assert set(chain_graph.dst[chain_graph.out_edges(0)]) == {1, 3}

    def test_neighbors_and_successors(self, chain_graph):
        assert set(chain_graph.neighbors(3)) == {0, 2}
        assert set(chain_graph.successors(3)) == {0}

    def test_degrees(self, chain_graph):
        assert chain_graph.in_degrees().sum() == chain_graph.num_edges
        assert chain_graph.out_degrees().sum() == chain_graph.num_edges

    def test_with_reverse_edges_doubles(self, chain_graph):
        g2 = chain_graph.with_reverse_edges()
        assert g2.num_edges == 10

    def test_without_duplicate_edges(self):
        g = ESellerGraph(3, [0, 0, 1], [1, 1, 2], [0, 0, 0])
        assert g.without_duplicate_edges().num_edges == 2

    def test_normalized_adjacency_symmetric(self, chain_graph):
        adj = chain_graph.normalized_adjacency()
        assert adj.shape == (4, 4)
        assert np.allclose(adj, adj.T)
        eigenvalues = np.linalg.eigvalsh(adj)
        assert eigenvalues.max() <= 1.0 + 1e-9

    def test_to_networkx(self, chain_graph):
        g = chain_graph.to_networkx()
        assert g.number_of_nodes() == 4
        assert g[0][1]["etype"] == 0

    def test_node_ids_roundtrip(self):
        g = ESellerGraph(2, [0], [1], node_ids=["a", "b"])
        assert g.node_ids == ["a", "b"]
        assert g.with_reverse_edges().node_ids == ["a", "b"]
        assert g.without_duplicate_edges().node_ids == ["a", "b"]
        with pytest.raises(ValueError):
            ESellerGraph(2, [0], [1], node_ids=["a"])

    def test_as_graph_is_the_graph_itself(self, chain_graph):
        """A static graph answers ``as_graph`` like a ``DynamicGraph``
        does, so holders of either kind need not ask which they hold."""
        assert chain_graph.as_graph() is chain_graph

    def test_incident_edges_contract(self):
        """``origin`` indexes the array asked (repeats answer again),
        ``position`` the edge arrays; a tombstone mask drops an edge from
        all four arrays together."""
        g = ESellerGraph(4, [2, 0, 2, 3], [1, 2, 2, 0], [0, 1, 2, 1])
        origin, position, other, types = g.incident_edges(
            np.array([2, 1, 2]), out=True)
        assert origin.tolist() == [0, 0, 2, 2]
        assert position.tolist() == [0, 2, 0, 2]
        assert other.tolist() == [1, 2, 1, 2] and types.tolist() == [0, 2, 0, 2]
        origin, position, other, types = g.incident_edges(
            np.array([2, 1, 2]), out=False,
            alive=np.array([True, True, False, True]))
        assert origin.tolist() == [0, 1, 2] and position.tolist() == [1, 0, 1]
        assert other.tolist() == [0, 2, 0] and types.tolist() == [1, 0, 1]
        for part in g.incident_edges(np.zeros(0, dtype=np.int64), out=True):
            assert part.size == 0 and part.dtype == np.int64

    def test_empty_graph(self):
        g = ESellerGraph(3, [], [])
        assert g.num_edges == 0
        assert g.in_degrees().sum() == 0


@pytest.fixture(params=["static", "overlay"])
def either_chain(request, chain_graph):
    """The chain as an ``ESellerGraph`` and as the same live graph held by
    a ``DynamicGraph`` (one edge tombstoned and re-added in the overlay)."""
    if request.param == "static":
        return chain_graph
    from repro.streaming import DynamicGraph

    dyn = DynamicGraph(chain_graph, compact_threshold=None)
    dyn.retire_edge(3, 0, 1)
    dyn.add_edge(3, 0, 1)
    return dyn


class TestSampling:
    @pytest.mark.parametrize("seed", [-1, -2, 4, 99])
    def test_out_of_range_seed_raises_on_either_kind(self, either_chain, seed):
        """Regression: on the static graph ``[-2]`` used to wrap to node 2
        and return its ball, ``[-1]`` died inside numpy with a ValueError."""
        with pytest.raises(IndexError, match=r"out of range \[0, 4\)"):
            k_hop_nodes(either_chain, [0, seed], 1)
        with pytest.raises(IndexError, match=r"out of range \[0, 4\)"):
            ego_subgraph(either_chain, seed, 1)
        with pytest.raises(IndexError, match=r"out of range \[0, 4\)"):
            ego_subgraphs(either_chain, [0, seed], 1)

    def test_no_seeds_is_empty_on_either_kind(self, either_chain):
        assert ego_subgraphs(either_chain, [], 2) == []
        assert k_hop_nodes(either_chain, [], 2).size == 0

    def test_ego_subgraph_is_one_type_on_either_kind(self, either_chain, chain_graph):
        ego = ego_subgraph(either_chain, 2, hops=1)
        ref = ego_subgraph(chain_graph, 2, hops=1)
        assert isinstance(ego, type(ref))
        assert ego.nodes.tolist() == ref.nodes.tolist() == [1, 2, 3]
        assert ego.center_local == ref.center_local == 1
        assert ego.subgraph.src.tolist() == ref.subgraph.src.tolist()
        assert ego.subgraph.dst.tolist() == ref.subgraph.dst.tolist()

    def test_k_hop_zero_is_seed(self, chain_graph):
        assert list(k_hop_nodes(chain_graph, [1], 0)) == [1]

    def test_k_hop_expands_both_directions(self, chain_graph):
        # From node 2: 1 hop reaches 1 (in) and 3 (out).
        nodes = set(k_hop_nodes(chain_graph, [2], 1))
        assert nodes == {1, 2, 3}

    def test_k_hop_negative_raises(self, chain_graph):
        with pytest.raises(ValueError):
            k_hop_nodes(chain_graph, [0], -1)

    def test_ego_subgraph_center_tracked(self, chain_graph):
        ego = ego_subgraph(chain_graph, 2, hops=1)
        assert ego.center == 2 and ego.nodes[ego.center_local] == 2
        assert ego.subgraph.num_nodes == ego.num_nodes == len(ego.nodes)

    def test_ego_subgraph_bad_center(self, chain_graph):
        with pytest.raises(IndexError):
            ego_subgraph(chain_graph, 99)

    def test_multi_seed_k_hop_equals_per_seed_union(self):
        spec = generate_seller_graph(60, np.random.default_rng(9))
        g = spec.graph
        seeds = [0, 7, 23, 41]
        for hops in range(4):
            merged = set(k_hop_nodes(g, seeds, hops).tolist())
            union = set()
            for s in seeds:
                union |= set(k_hop_nodes(g, [s], hops).tolist())
            assert merged == union

    def test_batched_ego_subgraphs_match_single(self):
        spec = generate_seller_graph(60, np.random.default_rng(4))
        g = spec.graph
        centers = [3, 17, 17, 42]
        batched = ego_subgraphs(g, centers, hops=2)
        assert [e.center for e in batched] == centers
        for ego in batched:
            single = ego_subgraph(g, ego.center, hops=2)
            assert np.array_equal(ego.nodes, single.nodes)
            assert ego.center_local == single.center_local
            assert ego.subgraph.num_edges == single.subgraph.num_edges
            assert np.array_equal(ego.subgraph.src, single.subgraph.src)
            assert np.array_equal(ego.subgraph.dst, single.subgraph.dst)

    def test_batched_ego_subgraphs_validates_range(self, chain_graph):
        with pytest.raises(IndexError):
            ego_subgraphs(chain_graph, [0, 99], hops=1)


class TestAlgorithms:
    def test_connected_components(self):
        g = ESellerGraph(5, src=[0, 3], dst=[1, 4])
        labels = connected_components(g)
        assert labels[0] == labels[1]
        assert labels[3] == labels[4]
        assert len(set(labels.tolist())) == 3

    def test_bfs_distances(self, chain_graph):
        dist = bfs_distances(chain_graph, 0)
        assert dist[0] == 0
        assert dist[1] == 1
        # 3 reachable directly via owner edge.
        assert dist[3] == 1

    def test_bfs_unreachable(self):
        g = ESellerGraph(3, src=[0], dst=[1])
        assert bfs_distances(g, 0)[2] == -1

    def test_bfs_bad_source(self, chain_graph):
        with pytest.raises(IndexError):
            bfs_distances(chain_graph, 10)

    def test_degree_statistics(self, chain_graph):
        stats = degree_statistics(chain_graph)
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["isolated_fraction"] == 0.0

    def test_degree_statistics_empty(self):
        stats = degree_statistics(ESellerGraph(0, [], []))
        assert stats["mean"] == 0.0


class TestGenerator:
    def test_structure_consistency(self):
        rng = np.random.default_rng(5)
        spec = generate_seller_graph(100, rng)
        assert spec.graph.num_nodes == 100
        assert len(spec.roles) == 100
        # Every retailer has a supplier and a lag.
        for retailer, supplier in spec.supplier_of.items():
            assert spec.roles[retailer] == "retailer"
            assert spec.roles[supplier] == "supplier"
            assert 1 <= spec.supply_lag[retailer] <= 2

    def test_supply_edges_point_downstream(self):
        rng = np.random.default_rng(5)
        spec = generate_seller_graph(80, rng)
        supply = spec.graph.edge_types == EdgeType.SUPPLY_CHAIN
        for s, d in zip(spec.graph.src[supply], spec.graph.dst[supply]):
            assert spec.supplier_of[int(d)] == int(s)

    def test_owner_groups_are_cliques(self):
        rng = np.random.default_rng(5)
        spec = generate_seller_graph(60, rng, owner_fraction=0.5)
        pairs = set(zip(spec.graph.src.tolist(), spec.graph.dst.tolist()))
        for group in spec.owner_groups:
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    assert (a, b) in pairs and (b, a) in pairs

    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_seller_graph(1, rng)
        with pytest.raises(ValueError):
            generate_seller_graph(10, rng, supply_chain_fraction=2.0)
        with pytest.raises(ValueError):
            generate_seller_graph(10, rng, max_supply_lag=0)

    @given(st.integers(10, 200))
    @settings(max_examples=10, deadline=None)
    def test_property_generator_valid_graphs(self, n):
        spec = generate_seller_graph(n, np.random.default_rng(n))
        g = spec.graph
        assert g.num_nodes == n
        if g.num_edges:
            assert g.src.max() < n and g.dst.max() < n
            assert g.src.min() >= 0 and g.dst.min() >= 0


@given(st.integers(2, 30), st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_property_k_hop_monotone(n, hops):
    """k-hop neighborhoods are monotone in k."""
    spec = generate_seller_graph(max(n, 2), np.random.default_rng(n))
    a = set(k_hop_nodes(spec.graph, [0], hops).tolist())
    b = set(k_hop_nodes(spec.graph, [0], hops + 1).tolist())
    assert a <= b
