"""Sharded graph partitioning for data-parallel training.

The paper's deployed system retrains monthly on a graph that spans
millions of shops (§VI); a single process rebuilding and training on
the whole graph does not scale.  This package splits the e-seller graph
into ``k`` balanced shards with explicit halo (ghost-node) sets:

* :func:`~repro.partition.partitioners.partition_graph` — front door:
  greedy BFS / label-propagation partitioning (``method="bfs"``) or the
  stateless hash baseline (``method="hash"``), returning a
  :class:`~repro.partition.partition.GraphPartition`.
* :class:`~repro.partition.partition.GraphPartition` /
  :class:`~repro.partition.partition.Partition` — ownership map, halo
  sets sized so each shard extracts complete ``k``-hop ego-subgraphs
  locally, and quality metrics (edge cut, balance, halo overhead).

Downstream consumer: :class:`~repro.training.parallel.ParallelTrainer`
trains one worker per shard with synchronous gradient averaging.

Quickstart::

    from repro.partition import partition_graph

    parts = partition_graph(dataset.graph, num_partitions=4, halo_hops=2)
    print(parts.summary())          # edge cut, balance, halo overhead
    shard0 = parts.parts[0]         # owned / halo / nodes arrays
"""

from .partition import GraphPartition, Partition, edge_cut
from .partitioners import (
    greedy_bfs_partition,
    hash_partition,
    label_propagation_refine,
    partition_graph,
)

__all__ = [
    "Partition",
    "GraphPartition",
    "edge_cut",
    "hash_partition",
    "greedy_bfs_partition",
    "label_propagation_refine",
    "partition_graph",
]
