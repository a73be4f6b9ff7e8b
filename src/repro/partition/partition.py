"""Partition data structure: ownership, owner blocks, and quality metrics.

A :class:`GraphPartition` splits the e-seller graph's nodes into
disjoint *owned* sets, one per shard.  For training, a shard is a seed
set: :meth:`GraphPartition.blocks` cuts a row mask (the loss rows of a
batch) into one block per owner, and each block is forwarded on the
**full** graph through the receptive layout of its own rows
(:func:`~repro.graph.sampling.receptive_layout`) — nothing is copied
per shard, and no block can miss a row it reads.

Quality of a partitioning is measured by its **edge cut** (edges whose
endpoints live in different owned sets), its **balance** (largest owned
set relative to the ideal even split) and, for an ``L``-layer model,
the **rows read** (:meth:`GraphPartition.rows_read`: per block, the rows
within ``L`` ``src -> dst`` steps of its seeds — a row two blocks read
is embedded twice, so a partitioner that keeps neighbourhoods together
keeps the sum near the rows one block over every seed reads).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..graph.graph import ESellerGraph
from ..graph.sampling import receptive_layout

__all__ = ["GraphPartition", "edge_cut"]


def edge_cut(graph: ESellerGraph, assignment: np.ndarray) -> int:
    """Number of edges whose endpoints are owned by different partitions."""
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (graph.num_nodes,):
        raise ValueError(
            f"assignment must have one entry per node, got shape {assignment.shape}"
        )
    if graph.num_edges == 0:
        return 0
    return int((assignment[graph.src] != assignment[graph.dst]).sum())


class GraphPartition:
    """A complete disjoint partitioning of one graph.

    Build via :meth:`from_assignment` (or the
    :func:`~repro.partition.partitioners.partition_graph` front door);
    the constructor trusts its inputs.
    """

    def __init__(self, graph: ESellerGraph, assignment: np.ndarray) -> None:
        self.graph = graph
        self.assignment = assignment
        self.owned_sizes = np.bincount(assignment)

    @classmethod
    def from_assignment(cls, graph: ESellerGraph,
                        assignment: np.ndarray) -> "GraphPartition":
        """Validate a node→shard map.

        Every shard must own at least one node: an empty shard would
        train nothing yet still take a slot.
        """
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (graph.num_nodes,):
            raise ValueError(
                f"assignment must have one entry per node, got shape {assignment.shape}"
            )
        if graph.num_nodes == 0:
            raise ValueError("cannot partition an empty graph")
        if assignment.min() < 0:
            raise ValueError("assignment entries must be non-negative")
        empty = np.flatnonzero(np.bincount(assignment) == 0)
        if empty.size:
            raise ValueError(f"partition {int(empty[0])} owns no nodes")
        return cls(graph, assignment)

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        """Number of shards."""
        return int(self.owned_sizes.size)

    def blocks(self, rows: Optional[np.ndarray] = None) -> List[np.ndarray]:
        """One boolean row mask per shard: ``rows & (assignment == s)``.

        ``rows`` (a boolean mask over the graph's nodes, default all)
        is cut into disjoint blocks that cover it; a block may be empty.
        """
        if rows is None:
            rows = np.ones(self.graph.num_nodes, dtype=bool)
        return [rows & (self.assignment == s) for s in range(self.num_partitions)]

    def rows_read(self, depth: int, rows: Optional[np.ndarray] = None) -> List[int]:
        """Per block of ``rows``, the rows a ``depth``-layer forward reads.

        ``rows_within[depth]`` of the block's
        :func:`~repro.graph.sampling.receptive_layout`: the block's rows
        plus every row within ``depth`` ``src -> dst`` steps upstream.
        """
        return [
            int(receptive_layout(self.graph, np.flatnonzero(block),
                                 depth).rows_within[depth])
            for block in self.blocks(rows)
        ]

    # ------------------------------------------------------------------
    # quality metrics
    # ------------------------------------------------------------------
    def edge_cut(self) -> int:
        """Edges crossing shard boundaries."""
        return edge_cut(self.graph, self.assignment)

    def edge_cut_fraction(self) -> float:
        """Cut edges as a fraction of all edges (0 when edgeless)."""
        if self.graph.num_edges == 0:
            return 0.0
        return self.edge_cut() / self.graph.num_edges

    def balance(self) -> float:
        """Largest owned set relative to the ideal ``n / k`` split (>= 1)."""
        ideal = self.graph.num_nodes / self.num_partitions
        return float(self.owned_sizes.max() / ideal)

    def summary(self) -> Dict[str, object]:
        """Serialisable quality report (benchmarks and logs)."""
        return {
            "num_partitions": self.num_partitions,
            "owned_sizes": self.owned_sizes.tolist(),
            "edge_cut": self.edge_cut(),
            "edge_cut_fraction": self.edge_cut_fraction(),
            "balance": self.balance(),
        }

    def __repr__(self) -> str:
        return (
            f"GraphPartition(k={self.num_partitions}, "
            f"cut={self.edge_cut()}, balance={self.balance():.3f})"
        )
