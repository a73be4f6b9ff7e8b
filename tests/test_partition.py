"""Property-based invariants for ``repro.partition``.

The partitioner contracts that the data-parallel trainer leans on:
disjoint ownership covers, balance caps, halo completeness (shard-local
ego-subgraphs equal full-graph ones), refinement monotonicity, and
determinism of the hash baseline.
"""

import numpy as np
import pytest

from repro.graph import ESellerGraph, ego_subgraph, k_hop_nodes
from repro.partition import (
    GraphPartition,
    edge_cut,
    greedy_bfs_partition,
    hash_partition,
    label_propagation_refine,
    partition_graph,
)

from helpers import forall, random_eseller_graph, shrink_graph

TRIALS = 40


def graph_and_k(rng: np.random.Generator):
    graph = random_eseller_graph(rng, max_nodes=40, max_edges=120, min_nodes=2)
    k = int(rng.integers(1, min(graph.num_nodes, 6) + 1))
    method = "bfs" if rng.random() < 0.5 else "hash"
    hops = int(rng.integers(0, 3))
    return graph, k, method, hops


def shrink_case(case):
    graph, k, method, hops = case
    for smaller in shrink_graph(graph):
        if smaller.num_nodes >= k:
            yield smaller, k, method, hops
    if k > 1:
        yield graph, k - 1, method, hops
    if hops > 0:
        yield graph, k, method, hops - 1


class TestPartitionCover:
    def test_disjoint_nonempty_cover(self):
        """Owned sets are a disjoint cover; halos never overlap owned."""

        def prop(case):
            graph, k, method, hops = case
            parts = partition_graph(graph, k, method=method, halo_hops=hops)
            assert parts.num_partitions == k
            counts = np.zeros(graph.num_nodes, dtype=np.int64)
            for part in parts.parts:
                assert part.num_owned > 0
                counts[part.owned] += 1
                assert np.intersect1d(part.owned, part.halo).size == 0
                assert np.array_equal(part.nodes, np.union1d(part.owned, part.halo))
            assert np.all(counts == 1), "every node owned exactly once"
            for part in parts.parts:
                assert np.all(parts.assignment[part.owned] == part.partition_id)

        forall(graph_and_k, prop, trials=TRIALS, seed=21,
               shrink=shrink_case, name="disjoint ownership cover")

    def test_bfs_balance_cap(self):
        """Greedy BFS respects the slack-bounded capacity."""

        def prop(case):
            graph, k, _, _ = case
            slack = 0.1
            assignment = greedy_bfs_partition(graph, k, balance_slack=slack)
            sizes = np.bincount(assignment, minlength=k)
            capacity = int(np.ceil(graph.num_nodes / k * (1.0 + slack)))
            assert sizes.max() <= capacity
            assert sizes.min() >= 1

        forall(graph_and_k, prop, trials=TRIALS, seed=22,
               shrink=shrink_case, name="bfs balance cap")


class TestHaloCompleteness:
    def test_local_ego_subgraph_equals_global(self):
        """For any owned seed and radius <= halo_hops, the shard-local
        ego-subgraph (nodes AND edges) equals the full-graph one — the
        property that lets each shard serve/train its shops alone."""

        def prop(case):
            graph, k, method, hops = case
            parts = partition_graph(graph, k, method=method, halo_hops=hops)
            rng = np.random.default_rng(0)
            for part in parts.parts:
                local_graph, originals = parts.local_subgraph(part.partition_id)
                probe = rng.choice(part.owned, size=min(3, part.num_owned),
                                   replace=False)
                for seed in probe:
                    seed = int(seed)
                    full = ego_subgraph(graph, seed, hops)
                    local_seed = int(np.searchsorted(originals, seed))
                    local = ego_subgraph(local_graph, local_seed, hops)
                    assert np.array_equal(originals[local.nodes], full.nodes)
                    assert local.center_local == full.center_local
                    # relabel both edge lists to global ids and compare
                    def triples(sub, nodes):
                        return sorted(zip(
                            nodes[sub.src].tolist(), nodes[sub.dst].tolist(),
                            sub.edge_types.tolist(),
                        ))
                    assert (
                        triples(local.subgraph, originals[local.nodes])
                        == triples(full.subgraph, full.nodes)
                    )

        forall(graph_and_k, prop, trials=TRIALS, seed=23,
               shrink=shrink_case, name="halo completeness")

    def test_halo_is_khop_closure_minus_owned(self):
        def prop(case):
            graph, k, method, hops = case
            parts = partition_graph(graph, k, method=method, halo_hops=hops)
            for part in parts.parts:
                reach = k_hop_nodes(graph, part.owned, hops)
                assert np.array_equal(
                    part.halo, np.setdiff1d(reach, part.owned)
                )

        forall(graph_and_k, prop, trials=TRIALS, seed=24,
               shrink=shrink_case, name="halo = closure \\ owned")


class TestRefinementAndMetrics:
    def test_label_propagation_never_worsens_cut(self):
        """Each accepted move strictly reduces incident cut edges, so the
        refined assignment can only improve the global edge cut."""

        def prop(case):
            graph, k, _, _ = case
            before = hash_partition(graph, k, seed=3)
            capacity = int(np.ceil(graph.num_nodes / k * 1.2))
            after = label_propagation_refine(graph, before, capacity, passes=3)
            assert edge_cut(graph, after) <= edge_cut(graph, before)
            sizes = np.bincount(after, minlength=k)
            assert sizes.min() >= 1
            assert sizes.max() <= max(capacity, np.bincount(before, minlength=k).max())

        forall(graph_and_k, prop, trials=TRIALS, seed=25,
               shrink=shrink_case, name="refinement monotone in cut")

    def test_edge_cut_matches_manual_count(self):
        def prop(case):
            graph, k, method, _ = case
            parts = partition_graph(graph, k, method=method, halo_hops=1)
            manual = sum(
                1 for s, d in zip(graph.src, graph.dst)
                if parts.assignment[s] != parts.assignment[d]
            )
            assert parts.edge_cut() == manual
            if graph.num_edges:
                assert parts.edge_cut_fraction() == manual / graph.num_edges

        forall(graph_and_k, prop, trials=TRIALS, seed=26,
               shrink=shrink_case, name="edge cut count")

    def test_hash_partition_deterministic(self):
        def prop(case):
            graph, k, _, _ = case
            a = hash_partition(graph, k, seed=7)
            b = hash_partition(graph, k, seed=7)
            assert np.array_equal(a, b)
            sizes = np.bincount(a, minlength=k)
            assert sizes.min() >= 1

        forall(graph_and_k, prop, trials=TRIALS, seed=27,
               shrink=shrink_case, name="hash determinism")


class TestValidation:
    def test_empty_partition_rejected(self):
        graph = ESellerGraph(4, src=[0, 1], dst=[1, 2])
        assignment = np.array([0, 0, 0, 2])  # partition 1 owns nothing
        with pytest.raises(ValueError, match="owns no nodes"):
            GraphPartition.from_assignment(graph, assignment, halo_hops=1)

    def test_too_many_partitions_rejected(self):
        graph = ESellerGraph(3, src=[0], dst=[1])
        with pytest.raises(ValueError):
            partition_graph(graph, 5)

    def test_assignment_shape_checked(self):
        graph = ESellerGraph(3, src=[0], dst=[1])
        with pytest.raises(ValueError):
            GraphPartition.from_assignment(graph, np.array([0, 1]), halo_hops=1)

    def test_bfs_beats_hash_on_structured_graph(self):
        """On a locality-rich graph the BFS partitioner's cut must be no
        worse than the topology-blind hash baseline (the whole point)."""
        from repro.graph import generate_seller_graph

        spec = generate_seller_graph(300, np.random.default_rng(5))
        graph = spec.graph
        bfs_cut = edge_cut(graph, greedy_bfs_partition(graph, 4))
        hash_cut = edge_cut(graph, hash_partition(graph, 4))
        assert bfs_cut <= hash_cut
