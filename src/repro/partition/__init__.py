"""Graph partitioning: which loss rows share a training forward.

The paper's deployed system retrains monthly on a graph that spans
millions of shops (§VI).  This package splits the e-seller graph into
``k`` balanced owned sets:

* :func:`~repro.partition.partitioners.partition_graph` — front door:
  greedy BFS / label-propagation partitioning (``method="bfs"``) or the
  stateless hash baseline (``method="hash"``), returning a
  :class:`~repro.partition.partition.GraphPartition`.
* :class:`~repro.partition.partition.GraphPartition` — ownership map,
  owner blocks of a row mask, and quality metrics (edge cut, balance,
  rows an ``L``-layer forward over each block reads).

Downstream consumer: :class:`~repro.training.parallel.ParallelTrainer`
accumulates one gradient per owner block of the loss rows, each
forwarded on the full graph over what its rows read.

Quickstart::

    from repro.partition import partition_graph

    parts = partition_graph(dataset.graph, num_partitions=4)
    print(parts.summary())          # edge cut, balance, owned sizes
    print(sum(parts.rows_read(2)))  # rows 2-layer forwards over the blocks read
"""

from .partition import GraphPartition, edge_cut
from .partitioners import (
    greedy_bfs_partition,
    hash_partition,
    label_propagation_refine,
    partition_graph,
)

__all__ = [
    "GraphPartition",
    "edge_cut",
    "hash_partition",
    "greedy_bfs_partition",
    "label_propagation_refine",
    "partition_graph",
]
