"""Ego-subgraph extraction and receptive layouts.

The deployed Gaia system (paper §VI) predicts a newcoming e-seller from
the *ego-subgraph* extracted around it.  This module owns the only
breadth-first loop (:func:`_reach`, over ``(label, node)`` pairs;
:func:`k_hop_nodes` is its single-label case) and the only ego assembly
(:func:`ego_subgraphs`, the serving gateway's batch entry point;
:func:`ego_subgraph` is a batch of one) in the repository, for **any**
graph that answers two things: ``num_nodes`` and
``incident_edges(nodes, out)`` — for an array of nodes and a direction,
the live incident edges as ``(origin index into the array, canonical
edge position, other endpoint, edge type)``.  The static
:class:`~repro.graph.graph.ESellerGraph` answers from its CSR index;
the streaming :class:`~repro.streaming.dynamic_graph.DynamicGraph`
answers from its base's index minus tombstones plus the overlay
adjacency.  Callers never need to know which kind they hold.

A batch of centers is **one** traversal and **one** edge gather: the
graph is asked ``2 * hops + 1`` times whatever the batch size, nothing
of size ``O(num_nodes)`` or ``O(num_edges)`` is allocated or scanned,
and every ego is array-identical to a single-seed extraction (the
brute-force oracles of ``tests/test_graph_properties.py`` are the
sequential reference).

Extraction is *undirected* and ``hops`` deep because it answers "what
could change this forecast's inputs" (the cache invalidation radius).
What a forward pass *reads* is narrower: an ``L``-layer message-passing
model lets a seed see only what reaches it along ``src -> dst`` edges
in ``L`` steps.  :func:`receptive_levels` computes that directed
in-reach over an edge list — the second and last traversal this module
owns — and :func:`receptive_layout` turns it into the one row / edge
order in which everything a layer reads is a prefix.  Serving lays a
stitched batch of egos out with it, seeded by the centers
(:func:`repro.serving.batching.build_disjoint_batch`); training lays the
whole graph out with it, seeded by the rows the loss reads
(:func:`repro.training.trainer.masked_loss`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graph import ESellerGraph

__all__ = [
    "k_hop_nodes",
    "receptive_levels",
    "ReceptiveLayout",
    "receptive_layout",
    "ego_subgraph",
    "ego_subgraphs",
    "EgoSubgraph",
]


def _checked_seeds(graph, seeds: Sequence[int]) -> np.ndarray:
    """``seeds`` as an ``int64`` array, all inside ``[0, num_nodes)``."""
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.size and not (0 <= seeds.min() and seeds.max() < graph.num_nodes):
        raise IndexError(
            f"seeds out of range [0, {graph.num_nodes}): "
            f"min={seeds.min()}, max={seeds.max()}"
        )
    return seeds


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a 1-D integer array.

    Spelled as sort + neighbour compare because ``np.unique``'s wrapper
    alone costs a tenth of a single-center extraction.
    """
    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _position_in(keys: np.ndarray, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(index, found)``: where each query sits in sorted, non-empty ``keys``.

    ``searchsorted`` answers ``len(keys)`` for a query beyond the last
    key; the index is clamped before the equality test reads it.
    """
    index = np.minimum(keys.searchsorted(queries), keys.size - 1)
    return index, keys[index] == queries


def _reach(graph, keys: np.ndarray, hops: int) -> np.ndarray:
    """The repository's one breadth-first loop, over ``(label, node)`` pairs.

    A pair travels as the ``int64`` key ``label * num_nodes + node``;
    ``keys`` are the seed pairs, sorted and unique.  Returns the sorted
    keys of every pair within ``hops`` undirected hops of a seed pair
    *of the same label*: labels never mix, so one traversal serves a
    whole batch of independent seeds.  Per hop the graph is asked twice
    (out- and in-edges of the whole frontier); the visited set is a
    sorted key array probed by binary search, never an
    ``O(num_nodes)`` mask.
    """
    if hops < 0:
        raise ValueError(f"hops must be non-negative, got {hops}")
    n = graph.num_nodes
    visited = frontier = keys
    for _ in range(hops):
        if frontier.size == 0:
            break
        label, node = np.divmod(frontier, n)
        reached = []
        for out in (True, False):
            origin, _, other, _ = graph.incident_edges(node, out)
            reached.append(label[origin] * n + other)
        reached = np.concatenate(reached)
        _, seen = _position_in(visited, reached)
        frontier = _sorted_unique(reached[~seen])
        visited = np.sort(np.concatenate([visited, frontier]))
    return visited


def k_hop_nodes(graph, seeds: Sequence[int], hops: int) -> np.ndarray:
    """Return nodes within ``hops`` (undirected) hops of ``seeds``.

    The frontier expands over both in- and out-edges because supply-chain
    influence in the paper flows both ways through aggregation.  With
    several seeds the result is the union of the per-seed neighborhoods
    — the traversal of :func:`ego_subgraphs` with every seed under one
    label, where a pair's key is the node itself.
    Seeds outside ``[0, num_nodes)`` raise ``IndexError``.
    """
    return _reach(graph, _sorted_unique(_checked_seeds(graph, seeds)), hops)


def receptive_levels(src: np.ndarray, dst: np.ndarray, num_nodes: int,
                     seeds: np.ndarray, depth: int) -> np.ndarray:
    """Per node, the fewest ``src -> dst`` steps from it to a seed.

    The layer-wise computation graph of a ``depth``-layer
    message-passing model over the edge list ``(src, dst)``: seeds are
    level 0, and ``level d + 1`` holds the sources of edges into level
    ``d`` not met earlier (``need[d + 1] = need[d] | src(edges with dst
    in need[d])``).  A node no seed can read within ``depth`` steps —
    an out-neighbour only, or one further upstream — gets ``depth + 1``.
    Direction matters: the undirected hop distance of :func:`_reach`
    would also keep the nodes a seed only *writes* to.  One boolean
    pass over the edges per level, no per-seed loop.
    """
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    level = np.full(num_nodes, depth + 1, dtype=np.int64)
    level[seeds] = 0
    for d in range(depth):
        reached = src[level[dst] == d]
        reached = reached[level[reached] > depth]
        if reached.size == 0:
            break
        level[reached] = d + 1
    return level


@dataclass
class ReceptiveLayout:
    """The rows and edges a forward over ``seeds`` reads, level-ordered.

    Rows are laid out by the depth at which the model first reads them
    — the seeds in ascending node order (level 0), then the rows first
    needed one ``src -> dst`` step upstream, two steps, ... — and rows
    no layer reads are left out; edges are stably sorted by the level of
    their ``dst`` and kept only below the last level, so the relative
    order inside one ``dst`` is that of the given edge list and segment
    sums add in the same order.  What an ``L``-layer model needs at each
    layer is therefore a *prefix*: ``rows_within[d]`` rows sit within
    ``d`` steps of a seed (``L + 1`` entries) and ``edges_into[d]``
    edges lead into them (``L`` entries).  Every edge in the first
    ``edges_into[d]`` has ``dst < rows_within[d]`` and
    ``src < rows_within[d + 1]``.

    ``rows`` are the kept nodes of the given edge list in layout order
    (what to gather features with), ``graph`` the kept edges relabelled
    to positions in ``rows``, ``seed_rows`` where each seed sits.
    """

    graph: ESellerGraph
    rows: np.ndarray
    seed_rows: np.ndarray
    rows_within: np.ndarray
    edges_into: np.ndarray


def receptive_layout(src: np.ndarray, dst: np.ndarray, edge_types: np.ndarray,
                     num_nodes: int, seeds: np.ndarray,
                     depth: Optional[int]) -> ReceptiveLayout:
    """Lay an edge list out for a ``depth``-layer forward over ``seeds``.

    ``depth`` is the receptive depth of the model about to read the
    result (:attr:`repro.nn.module.Module.receptive_depth`): only rows
    within ``depth`` directed steps of a seed are kept, in the
    level-ordered layout :class:`ReceptiveLayout` documents.  ``None``
    — a model that reads everything — is the same routine with every
    row at level 0: the stable sorts are the identity, and every row
    and edge comes out where it was.  A pure function of its arrays.
    """
    if depth is None:
        # Every row is read: all of them are level 0, and the one level
        # of edges into level-0 rows is all of the edges.
        level, depth = np.zeros(num_nodes, dtype=np.int64), 1
    else:
        level = receptive_levels(src, dst, num_nodes, seeds, depth)
    rows_within = np.bincount(level, minlength=depth + 1)[:depth + 1].cumsum()
    edge_level = level[dst]
    edges_into = np.bincount(edge_level, minlength=depth)[:depth].cumsum()
    rows = np.argsort(level, kind="stable")[:rows_within[-1]]
    edges = np.argsort(edge_level, kind="stable")
    edges = edges[:np.count_nonzero(edge_level < depth)]
    row_of = np.empty(num_nodes, dtype=np.int64)
    row_of[rows] = np.arange(rows.size, dtype=np.int64)
    return ReceptiveLayout(
        graph=ESellerGraph(rows.size, row_of[src[edges]], row_of[dst[edges]],
                           edge_types[edges]),
        rows=rows,
        seed_rows=row_of[seeds],
        rows_within=rows_within,
        edges_into=edges_into,
    )


@dataclass
class EgoSubgraph:
    """One extracted ego-subgraph, ready for (batched) serving.

    ``nodes`` are the original node indices (sorted); ``center_local`` is
    the seed's position within them; ``subgraph`` is the induced graph
    with nodes relabelled ``0..len(nodes)-1`` in that order, edges in
    the host graph's canonical order.  The subgraph carries no
    ``node_ids`` (no builder in the repository sets them on a host
    graph; ``nodes`` is the way back to it), and its arrays may be views
    into arrays shared by the batch it was extracted with: treat them
    as read-only.
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
    return ego_subgraphs(graph, [center], hops)[0]


def ego_subgraphs(graph, centers: Sequence[int], hops: int = 2) -> List[EgoSubgraph]:
    """One :class:`EgoSubgraph` per center (the gateway's batch entry point).

    The whole batch is one traversal and one edge gather: position ``i``
    of ``centers`` labels its own ball (repeated centers get one ego
    each), :func:`_reach` grows all balls together, and one query for
    the out-edges of every ``(label, node)`` pair — each induced edge
    leaves exactly one member, so out-edges alone list it once —
    filtered to destinations inside the same ball and sorted by
    ``(label, canonical position)`` yields every induced edge list in
    the host graph's edge order.  Each ego equals what a single-seed
    extraction returns, array for array, so a serving layer can stitch
    the results into one node-disjoint batch and still reproduce
    per-request forwards bit-for-bit.  Cost is O(sum of ego degrees),
    independent of the host graph's size.
    """
    centers = _checked_seeds(graph, centers)
    if centers.size == 0:
        return []
    n = graph.num_nodes
    batch = np.arange(centers.size + 1, dtype=np.int64)
    seeds = batch[:-1] * n + centers
    keys = _reach(graph, seeds, hops)
    label, node = np.divmod(keys, n)
    origin, position, other, types = graph.incident_edges(node, out=True)
    edge_label = label[origin]
    target, inside = _position_in(keys, edge_label * n + other)
    order = np.flatnonzero(inside)
    order = order[np.lexsort((position[order], edge_label[order]))]
    edge_label = edge_label[order]
    # Ego i owns rows first_row[i]:first_row[i + 1] of ``keys`` and
    # edges first_edge[i]:first_edge[i + 1] of the sorted edge arrays.
    first_row = keys.searchsorted(batch * n)
    first_edge = edge_label.searchsorted(batch).tolist()
    shift = first_row[edge_label]
    src, dst, types = origin[order] - shift, target[order] - shift, types[order]
    center_local = (keys.searchsorted(seeds) - first_row[:-1]).tolist()
    first_row = first_row.tolist()
    egos = []
    for i, center in enumerate(centers.tolist()):
        rows = slice(first_row[i], first_row[i + 1])
        edges = slice(first_edge[i], first_edge[i + 1])
        egos.append(EgoSubgraph(
            center=center,
            subgraph=ESellerGraph(rows.stop - rows.start,
                                  src[edges], dst[edges], types[edges]),
            nodes=node[rows],
            center_local=center_local[i],
        ))
    return egos

