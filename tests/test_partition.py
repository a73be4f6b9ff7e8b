"""Property-based invariants for ``repro.partition``.

The partitioner contracts that the block-accumulating trainer leans on:
disjoint ownership covers, owner blocks that cover a row mask exactly
once, the rows a block's forward reads, balance caps, refinement
monotonicity, and determinism of the hash baseline.
"""

import numpy as np
import pytest

from repro.graph import ESellerGraph
from repro.graph.sampling import receptive_layout
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
    depth = int(rng.integers(0, 3))
    return graph, k, method, depth


def shrink_case(case):
    graph, k, method, depth = case
    for smaller in shrink_graph(graph):
        if smaller.num_nodes >= k:
            yield smaller, k, method, depth
    if k > 1:
        yield graph, k - 1, method, depth
    if depth > 0:
        yield graph, k, method, depth - 1


class TestPartitionCover:
    def test_disjoint_nonempty_cover(self):
        """Owned sets are a non-empty disjoint cover of the nodes."""

        def prop(case):
            graph, k, method, _ = case
            parts = partition_graph(graph, k, method=method)
            assert parts.num_partitions == k
            assert parts.owned_sizes.min() > 0
            assert parts.owned_sizes.sum() == graph.num_nodes
            counts = np.sum(parts.blocks(), axis=0)
            assert np.all(counts == 1), "every node owned exactly once"
            for s, block in enumerate(parts.blocks()):
                assert np.all(parts.assignment[block] == s)

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


class TestBlocks:
    def test_blocks_cover_any_row_mask_once(self):
        """Owner blocks of a row mask are disjoint and cover it — the
        property that makes ``|block| / |rows|`` weights sum to one."""

        def prop(case):
            graph, k, method, _ = case
            parts = partition_graph(graph, k, method=method)
            rows = np.random.default_rng(graph.num_edges).random(
                graph.num_nodes) < 0.5
            blocks = parts.blocks(rows)
            assert len(blocks) == k
            assert np.array_equal(np.sum(blocks, axis=0), rows.astype(int))

        forall(graph_and_k, prop, trials=TRIALS, seed=23,
               shrink=shrink_case, name="blocks cover the rows once")

    def test_rows_read_is_the_receptive_prefix_of_each_block(self):
        """``rows_read(L)`` counts what an ``L``-layer forward seeded by
        each block reads; summed over blocks it is never below the rows
        one forward over every seed reads (a shared row is read twice)."""

        def prop(case):
            graph, k, method, depth = case
            parts = partition_graph(graph, k, method=method)
            per_block = parts.rows_read(depth)
            for block, read in zip(parts.blocks(), per_block):
                layout = receptive_layout(graph, np.flatnonzero(block), depth)
                assert read == layout.rows_within[depth]
            whole = receptive_layout(graph, np.arange(graph.num_nodes), depth)
            assert sum(per_block) >= whole.rows_within[depth]

        forall(graph_and_k, prop, trials=TRIALS, seed=24,
               shrink=shrink_case, name="rows read per block")


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
            parts = partition_graph(graph, k, method=method)
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
            GraphPartition.from_assignment(graph, assignment)

    def test_too_many_partitions_rejected(self):
        graph = ESellerGraph(3, src=[0], dst=[1])
        with pytest.raises(ValueError):
            partition_graph(graph, 5)

    def test_assignment_shape_checked(self):
        graph = ESellerGraph(3, src=[0], dst=[1])
        with pytest.raises(ValueError):
            GraphPartition.from_assignment(graph, np.array([0, 1]))

    def test_bfs_beats_hash_on_structured_graph(self):
        """On a locality-rich graph the BFS partitioner's cut must be no
        worse than the topology-blind hash baseline (the whole point)."""
        from repro.graph import generate_seller_graph

        spec = generate_seller_graph(300, np.random.default_rng(5))
        graph = spec.graph
        bfs_cut = edge_cut(graph, greedy_bfs_partition(graph, 4))
        hash_cut = edge_cut(graph, hash_partition(graph, 4))
        assert bfs_cut <= hash_cut
