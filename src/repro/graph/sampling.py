"""Ego-subgraph extraction and neighbor sampling.

The deployed Gaia system (paper §VI) predicts a newcoming e-seller from
the *ego-subgraph* extracted around it.  This module owns the only
breadth-first loop (:func:`k_hop_nodes`) and the only ego assembly
(:func:`ego_subgraph`; :func:`ego_subgraphs` for the serving gateway's
micro-batches) in the repository, for **any** graph that answers three
things: ``num_nodes``, ``hop_neighbors(frontier)`` — the endpoints one
undirected hop away — and ``subgraph(nodes)``.  The static
:class:`~repro.graph.graph.ESellerGraph` answers from its CSR index
(O(frontier edges) per hop, not O(E)); the streaming
:class:`~repro.streaming.dynamic_graph.DynamicGraph` answers from its
base's index minus tombstones plus the overlay adjacency.  Callers never
need to know which kind they hold.  :func:`sample_neighbors` provides
GraphSAGE-style fanout capping for minibatch training on larger graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .graph import ESellerGraph, _gather_segments

__all__ = [
    "k_hop_nodes",
    "ego_subgraph",
    "ego_subgraphs",
    "EgoSubgraph",
    "sample_neighbors",
]


def k_hop_nodes(graph, seeds: Sequence[int], hops: int) -> np.ndarray:
    """Return nodes within ``hops`` (undirected) hops of ``seeds``.

    The frontier expands over both in- and out-edges because supply-chain
    influence in the paper flows both ways through aggregation.  With
    several seeds the result is the union of the per-seed neighborhoods.
    Seeds outside ``[0, num_nodes)`` raise ``IndexError``.
    """
    if hops < 0:
        raise ValueError(f"hops must be non-negative, got {hops}")
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    if frontier.size and not (0 <= frontier[0] and frontier[-1] < graph.num_nodes):
        raise IndexError(
            f"seeds out of range [0, {graph.num_nodes}): "
            f"min={frontier[0]}, max={frontier[-1]}"
        )
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[frontier] = True
    for _ in range(hops):
        if frontier.size == 0:
            break
        nxt = np.unique(graph.hop_neighbors(frontier))
        nxt = nxt[~visited[nxt]]
        visited[nxt] = True
        frontier = nxt
    return np.flatnonzero(visited)


@dataclass
class EgoSubgraph:
    """One extracted ego-subgraph, ready for (batched) serving.

    ``nodes`` are the original node indices (sorted); ``center_local`` is
    the seed's position within them; ``subgraph`` is the induced graph
    with nodes relabelled ``0..len(nodes)-1`` in that order.
    """

    center: int
    subgraph: ESellerGraph
    nodes: np.ndarray
    center_local: int

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the ego-subgraph."""
        return self.subgraph.num_nodes


def ego_subgraph(graph, center: int, hops: int = 2) -> EgoSubgraph:
    """Extract the ``hops``-hop ego-subgraph around ``center``.

    The center is always the node whose prediction the online server
    computes (paper Fig. 5).
    """
    center = int(center)
    sub, nodes = graph.subgraph(k_hop_nodes(graph, [center], hops))
    return EgoSubgraph(
        center=center,
        subgraph=sub,
        nodes=nodes,
        center_local=int(np.searchsorted(nodes, center)),
    )


def ego_subgraphs(graph, centers: Sequence[int], hops: int = 2) -> List[EgoSubgraph]:
    """One :class:`EgoSubgraph` per center (the gateway's batch entry point).

    Each equals the single-seed :func:`ego_subgraph` exactly, so a serving
    layer can stitch the results into one node-disjoint batch and still
    reproduce per-request forwards bit-for-bit.
    """
    return [ego_subgraph(graph, center, hops)
            for center in np.asarray(centers, dtype=np.int64).tolist()]


def sample_neighbors(
    graph: ESellerGraph,
    nodes: Sequence[int],
    fanout: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample up to ``fanout`` incoming edges per node.

    Returns ``(src, dst, edge_types)`` arrays of the sampled edges.  When
    a node has fewer than ``fanout`` in-edges, all are kept (sampling
    without replacement).  The per-node reservoir runs vectorised: every
    candidate edge draws a random key and each node keeps its ``fanout``
    smallest keys, so no Python-level loop over nodes remains.
    """
    if fanout <= 0:
        raise ValueError(f"fanout must be positive, got {fanout}")
    nodes = np.asarray(nodes, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    if nodes.size == 0 or graph.num_edges == 0:
        return empty, empty.copy(), empty.copy()
    indptr, order = graph.in_csr()
    counts = indptr[nodes + 1] - indptr[nodes]
    edges = _gather_segments(indptr, order, nodes)
    if edges.size == 0:
        return empty, empty.copy(), empty.copy()
    segments = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
    keys = rng.random(edges.size)
    perm = np.lexsort((keys, segments))
    seg_offsets = np.cumsum(counts) - counts
    rank = np.arange(edges.size, dtype=np.int64) - seg_offsets[segments]
    keep = edges[perm][rank < fanout]
    return graph.src[keep], graph.dst[keep], graph.edge_types[keep]
