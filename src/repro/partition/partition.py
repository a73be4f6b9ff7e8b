"""Partition data structures: ownership, halos, and quality metrics.

A :class:`GraphPartition` splits the e-seller graph's nodes into
disjoint *owned* sets, one per shard.  Each :class:`Partition` also
carries a *halo* (ghost-node) set — every node within ``halo_hops``
undirected hops of its owned set — so a shard can extract complete
``k``-hop ego-subgraphs, and run ``k``-layer message passing for its
owned nodes, entirely from its local induced subgraph: for any owned
node ``v`` and ``k <= halo_hops``, the full ``k``-hop neighborhood of
``v`` (nodes *and* edges) lives inside ``owned | halo``.

Quality of a partitioning is measured by its **edge cut** (edges whose
endpoints live in different owned sets — the traffic a distributed
trainer must ship between shards) and its **balance** (largest owned
set relative to the ideal even split).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..graph.graph import ESellerGraph
from ..graph.sampling import k_hop_nodes

__all__ = ["Partition", "GraphPartition", "edge_cut"]


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


@dataclass
class Partition:
    """One shard's slice of the graph: owned nodes plus their halo.

    Attributes
    ----------
    partition_id:
        Shard index in ``0..num_partitions-1``.
    owned:
        Sorted node indices this shard owns (loss / labels).
    halo:
        Sorted ghost nodes — within ``halo_hops`` of ``owned`` but owned
        elsewhere.  Read-only context for message passing.
    nodes:
        Sorted union ``owned | halo``; the local subgraph's node order.
    """

    partition_id: int
    owned: np.ndarray
    halo: np.ndarray
    nodes: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.owned = np.unique(np.asarray(self.owned, dtype=np.int64))
        self.halo = np.unique(np.asarray(self.halo, dtype=np.int64))
        if np.intersect1d(self.owned, self.halo).size:
            raise ValueError("owned and halo sets must be disjoint")
        if self.nodes is None:
            self.nodes = np.union1d(self.owned, self.halo)

    @property
    def num_owned(self) -> int:
        """Number of owned nodes."""
        return int(self.owned.size)

    @property
    def num_halo(self) -> int:
        """Number of ghost nodes."""
        return int(self.halo.size)

    @property
    def num_nodes(self) -> int:
        """Total local nodes (owned + halo)."""
        return int(self.nodes.size)

    def local_owned_mask(self) -> np.ndarray:
        """Boolean mask over ``nodes`` marking the owned rows."""
        return np.isin(self.nodes, self.owned, assume_unique=True)


class GraphPartition:
    """A complete disjoint partitioning of one graph, with halos.

    Build via :meth:`from_assignment` (or the
    :func:`~repro.partition.partitioners.partition_graph` front door);
    the constructor trusts its inputs.
    """

    def __init__(
        self,
        graph: ESellerGraph,
        assignment: np.ndarray,
        parts: List[Partition],
        halo_hops: int,
    ) -> None:
        self.graph = graph
        self.assignment = assignment
        self.parts = parts
        self.halo_hops = int(halo_hops)

    @classmethod
    def from_assignment(
        cls, graph: ESellerGraph, assignment: np.ndarray, halo_hops: int = 2
    ) -> "GraphPartition":
        """Materialise partitions (with halos) from a node→shard map.

        Every shard must own at least one node: an empty shard would
        train nothing yet still take a gradient-averaging slot.
        """
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (graph.num_nodes,):
            raise ValueError(
                f"assignment must have one entry per node, got shape {assignment.shape}"
            )
        if halo_hops < 0:
            raise ValueError(f"halo_hops must be non-negative, got {halo_hops}")
        if graph.num_nodes == 0:
            raise ValueError("cannot partition an empty graph")
        num_partitions = int(assignment.max()) + 1
        if assignment.min() < 0:
            raise ValueError("assignment entries must be non-negative")
        parts: List[Partition] = []
        for pid in range(num_partitions):
            owned = np.flatnonzero(assignment == pid)
            if owned.size == 0:
                raise ValueError(f"partition {pid} owns no nodes")
            reach = k_hop_nodes(graph, owned, halo_hops)
            halo = np.setdiff1d(reach, owned, assume_unique=True)
            parts.append(Partition(partition_id=pid, owned=owned, halo=halo))
        return cls(graph, assignment, parts, halo_hops)

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        """Number of shards."""
        return len(self.parts)

    def owner(self, node: int) -> int:
        """Shard id owning ``node``."""
        if not 0 <= node < self.graph.num_nodes:
            raise IndexError(
                f"node {node} out of range for {self.graph.num_nodes} nodes"
            )
        return int(self.assignment[node])

    def local_subgraph(self, partition_id: int):
        """Induced subgraph over one shard's ``owned | halo`` node set.

        Returns ``(subgraph, original_node_indices)`` exactly like
        :meth:`~repro.graph.graph.ESellerGraph.subgraph`.
        """
        part = self.parts[partition_id]
        return self.graph.subgraph(part.nodes)

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
        largest = max(part.num_owned for part in self.parts)
        ideal = self.graph.num_nodes / self.num_partitions
        return float(largest / ideal)

    def halo_overhead(self) -> float:
        """Total ghost rows replicated across shards, relative to ``n``."""
        return sum(part.num_halo for part in self.parts) / self.graph.num_nodes

    def summary(self) -> Dict[str, object]:
        """Serialisable quality report (benchmarks and logs)."""
        return {
            "num_partitions": self.num_partitions,
            "halo_hops": self.halo_hops,
            "owned_sizes": [part.num_owned for part in self.parts],
            "halo_sizes": [part.num_halo for part in self.parts],
            "edge_cut": self.edge_cut(),
            "edge_cut_fraction": self.edge_cut_fraction(),
            "balance": self.balance(),
            "halo_overhead": self.halo_overhead(),
        }

    def __repr__(self) -> str:
        return (
            f"GraphPartition(k={self.num_partitions}, "
            f"cut={self.edge_cut()}, balance={self.balance():.3f})"
        )
