"""E-seller graph data structure.

The paper models e-sellers as a *homogeneous* graph whose edges carry
their relationship type (supply-chain or same-owner/shareholder) as an
edge feature.  :class:`ESellerGraph` stores edges in COO form with a CSR
index built lazily for fast neighbor queries, and keeps per-edge type
codes plus optional per-edge feature vectors.  A graph's edge arrays are
fixed at construction, so its index is sorted at most once per plane; a
changed graph is a new :class:`ESellerGraph` (live edits go through
:class:`~repro.streaming.dynamic_graph.DynamicGraph`, whose compaction
builds one).

All model layers in this repository consume the COO view (``src``,
``dst`` arrays) because message passing is implemented with dense
gather / segment-sum kernels; the CSR view answers
:meth:`ESellerGraph.incident_edges`, the one edge query the
breadth-first loop and the ego assembly of :mod:`repro.graph.sampling`
ask of a graph.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["EdgeType", "ESellerGraph"]


def _gather_segments(
    indptr: np.ndarray, order: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(origin, edges)``: the CSR rows of ``nodes``, concatenated.

    Fully vectorised multi-row gather: ``edges`` lists
    ``order[indptr[v]:indptr[v + 1]]`` for every ``v`` in ``nodes``,
    nodes in the given order (repeats answer again), and ``origin[k]``
    is the index into ``nodes`` of the row ``edges[k]`` came from.
    """
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    origin = np.arange(nodes.size, dtype=np.int64).repeat(counts)
    # Entry k of the answer is its row's start plus k minus the entries
    # of the rows before it.
    shift = starts - (counts.cumsum() - counts)
    return origin, order[np.arange(origin.size, dtype=np.int64) + shift[origin]]


class EdgeType:
    """Edge-type codes used as edge features on the homogeneous graph."""

    SUPPLY_CHAIN = 0
    SAME_OWNER = 1
    SAME_SHAREHOLDER = 2

    ALL = (SUPPLY_CHAIN, SAME_OWNER, SAME_SHAREHOLDER)
    NAMES = {
        SUPPLY_CHAIN: "supply_chain",
        SAME_OWNER: "same_owner",
        SAME_SHAREHOLDER: "same_shareholder",
    }

    @classmethod
    def name_of(cls, code: int) -> str:
        """Human-readable name of an edge-type code."""
        if code not in cls.NAMES:
            raise ValueError(f"unknown edge type code {code}")
        return cls.NAMES[code]


class ESellerGraph:
    """Directed homogeneous graph over e-seller (shop) nodes.

    Parameters
    ----------
    num_nodes:
        Number of shops.
    src, dst:
        Edge endpoint arrays (message flows ``src -> dst``).
    edge_types:
        Per-edge type code (see :class:`EdgeType`).
    node_ids:
        Optional external shop identifiers, one per node.  When omitted,
        nodes are identified by their index.

    Notes
    -----
    The paper's supply-chain edges are semantically directed (supplier →
    retailer) but information is aggregated from *all* neighbors, so
    builders typically add both directions; same-owner edges are
    symmetric by construction.
    """

    def __init__(
        self,
        num_nodes: int,
        src: Sequence[int],
        dst: Sequence[int],
        edge_types: Optional[Sequence[int]] = None,
        node_ids: Optional[Sequence[str]] = None,
    ) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        if self.src.shape != self.dst.shape or self.src.ndim != 1:
            raise ValueError("src and dst must be 1-D arrays of equal length")
        if self.src.size:
            lo = min(self.src.min(), self.dst.min())
            hi = max(self.src.max(), self.dst.max())
            if lo < 0 or hi >= self.num_nodes:
                raise ValueError(
                    f"edge endpoints out of range [0, {self.num_nodes}): min={lo}, max={hi}"
                )
        if edge_types is None:
            edge_types = np.zeros(self.src.size, dtype=np.int64)
        self.edge_types = np.asarray(edge_types, dtype=np.int64)
        if self.edge_types.shape != self.src.shape:
            raise ValueError("edge_types must align with src/dst")
        if node_ids is not None and len(node_ids) != self.num_nodes:
            raise ValueError("node_ids must have one entry per node")
        self.node_ids: Optional[List[str]] = list(node_ids) if node_ids is not None else None
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._csr_in: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def from_edit_history(
        cls,
        num_nodes: int,
        src: Sequence[int],
        dst: Sequence[int],
        edge_types: Sequence[int],
        alive: Sequence[bool],
        node_ids: Optional[Sequence[str]] = None,
    ) -> "ESellerGraph":
        """Build a graph from a full edge history plus a liveness mask.

        ``src``/``dst``/``edge_types`` list every edge ever added, in
        addition order; ``alive`` marks the ones that were never retired
        (tombstoned).  Surviving edges keep their addition order, which
        makes the result *canonical*: replaying an event log through
        :class:`~repro.streaming.dynamic_graph.DynamicGraph` and
        compacting produces the same graph — same edge order, hence
        bit-identical message passing — as building from the final
        history in one shot.
        """
        alive = np.asarray(alive, dtype=bool)
        src = np.asarray(src, dtype=np.int64)
        if alive.shape != src.shape:
            raise ValueError("alive mask must align with the edge history")
        dst = np.asarray(dst, dtype=np.int64)
        edge_types = np.asarray(edge_types, dtype=np.int64)
        return cls(
            num_nodes, src[alive], dst[alive], edge_types[alive], node_ids
        )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.src.size)

    def __repr__(self) -> str:
        return f"ESellerGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    def edge_type_counts(self) -> Dict[str, int]:
        """Count edges per relationship type."""
        counts: Dict[str, int] = {}
        for code in EdgeType.ALL:
            n = int((self.edge_types == code).sum())
            if n:
                counts[EdgeType.name_of(code)] = n
        return counts

    # ------------------------------------------------------------------
    # CSR views
    # ------------------------------------------------------------------
    def _build_csr(self, by_src: bool) -> Tuple[np.ndarray, np.ndarray]:
        key = self.src if by_src else self.dst
        order = np.argsort(key, kind="stable")
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=self.num_nodes), out=indptr[1:])
        return indptr, order

    def out_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR view over sources: ``(indptr, edge_order)``.

        ``edge_order[indptr[v]:indptr[v + 1]]`` are the edge indices whose
        source is ``v``.  Built lazily once and reused by every neighbor
        query and frontier expansion.
        """
        if self._csr is None:
            self._csr = self._build_csr(by_src=True)
        return self._csr

    def in_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR view over destinations: ``(indptr, edge_order)``."""
        if self._csr_in is None:
            self._csr_in = self._build_csr(by_src=False)
        return self._csr_in

    def out_edges(self, node: int) -> np.ndarray:
        """Edge indices whose source is ``node``."""
        indptr, order = self.out_csr()
        return order[indptr[node]:indptr[node + 1]]

    def in_edges(self, node: int) -> np.ndarray:
        """Edge indices whose destination is ``node``."""
        indptr, order = self.in_csr()
        return order[indptr[node]:indptr[node + 1]]

    def neighbors(self, node: int) -> np.ndarray:
        """Source nodes of edges pointing into ``node`` (its message senders)."""
        return self.src[self.in_edges(node)]

    def successors(self, node: int) -> np.ndarray:
        """Destination nodes of edges leaving ``node``."""
        return self.dst[self.out_edges(node)]

    def incident_edges(
        self, nodes: np.ndarray, out: bool, alive: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Edges leaving (``out``) or entering each of ``nodes``.

        The one edge query :mod:`repro.graph.sampling` asks of a graph.
        ``nodes`` is an ``int64`` array inside ``[0, num_nodes)``,
        repeats allowed; the answer is four aligned arrays
        ``(origin, position, other, edge_types)``, one entry per
        (queried node, incident edge): ``origin`` indexes into ``nodes``
        (a node asked twice answers twice), ``position`` is the edge's
        index in ``src`` / ``dst`` — its *canonical position*, the order
        an induced edge list must keep — and ``other`` is the endpoint
        that is not the queried one.  Gathered from the CSR index:
        O(incident edges), never O(N) or O(E).  ``alive`` is the
        per-edge tombstone mask a
        :class:`~repro.streaming.dynamic_graph.DynamicGraph` passes when
        this graph is its frozen base; dead edges drop out of all four
        arrays together.
        """
        origin, position = _gather_segments(
            *(self.out_csr() if out else self.in_csr()), nodes)
        if alive is not None:
            keep = alive[position]
            origin, position = origin[keep], position[keep]
        other = (self.dst if out else self.src)[position]
        return origin, position, other, self.edge_types[position]

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node."""
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(deg, self.dst, 1)
        return deg

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node."""
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(deg, self.src, 1)
        return deg

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def as_graph(self) -> "ESellerGraph":
        """This graph: what a static graph answers where a
        :class:`~repro.streaming.dynamic_graph.DynamicGraph` compacts."""
        return self

    def with_reverse_edges(self) -> "ESellerGraph":
        """Return a graph with each edge duplicated in the reverse direction.

        Reverse copies keep the original type code, matching the paper's
        treatment of relationship type as a plain edge feature.
        """
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        types = np.concatenate([self.edge_types, self.edge_types])
        return ESellerGraph(self.num_nodes, src, dst, types, self.node_ids)

    def without_duplicate_edges(self) -> "ESellerGraph":
        """Return a graph with exact duplicate (src, dst, type) edges removed."""
        if self.num_edges == 0:
            return ESellerGraph(self.num_nodes, [], [], [], self.node_ids)
        stacked = np.stack([self.src, self.dst, self.edge_types], axis=1)
        _, keep = np.unique(stacked, axis=0, return_index=True)
        keep = np.sort(keep)
        return ESellerGraph(
            self.num_nodes, self.src[keep], self.dst[keep], self.edge_types[keep], self.node_ids
        )

    def normalized_adjacency(self, add_self_loops: bool = True) -> np.ndarray:
        """Dense symmetric-normalised adjacency ``D^-1/2 (A + I) D^-1/2``.

        Used by the STGCN / MTGNN baselines' spectral-style propagation;
        only suitable for the small graphs this reproduction targets.
        """
        adj = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float64)
        adj[self.dst, self.src] = 1.0
        adj[self.src, self.dst] = 1.0
        if add_self_loops:
            np.fill_diagonal(adj, 1.0)
        deg = adj.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
        return adj * inv_sqrt[:, None] * inv_sqrt[None, :]

    def to_networkx(self):
        """Convert to a ``networkx.DiGraph`` (edge type stored as ``etype``)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_nodes))
        for s, d, t in zip(self.src, self.dst, self.edge_types):
            g.add_edge(int(s), int(d), etype=int(t))
        return g
