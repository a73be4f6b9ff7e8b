"""Receptive layouts and ego-subgraph extraction.

The deployed Gaia system (paper §VI) predicts a newcoming e-seller from
the subgraph around it.  This module owns the repository's one
breadth-first loop (:func:`_reach`, over ``(label, node)`` pairs, in
either or both edge directions) for **any** graph that answers two
things: ``num_nodes`` and ``incident_edges(nodes, out)`` — for an array
of nodes and a direction, the live incident edges as ``(origin index
into the array, canonical edge position, other endpoint, edge type)``.
The static :class:`~repro.graph.graph.ESellerGraph` answers from its CSR
index, the streaming :class:`~repro.streaming.dynamic_graph.DynamicGraph`
from its base's index minus tombstones plus the overlay adjacency.  The
graph is asked once per step and direction whatever the batch size, and
nothing of size ``O(num_nodes)`` or ``O(num_edges)`` is allocated.

:func:`receptive_layout` runs the loop over in-edges: what an ``L``-layer
message-passing model reads of a seed is what reaches it along
``src -> dst`` edges in ``L`` steps, laid out so that everything a layer
reads is a prefix.  The serving gateway lays a batch of centers out with
it, one label per request; the training loss lays its loss rows out with
it under one label (:func:`repro.training.trainer.masked_loss`).

:func:`ego_subgraphs` runs the loop both ways, ``hops`` deep, and
gathers the induced edges: the whole ego a model that declares no
receptive depth is handed.  Each ego is array-identical to a
single-seed extraction (the brute-force oracles of
``tests/test_graph_properties.py`` are the sequential reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .graph import ESellerGraph

__all__ = [
    "k_hop_nodes",
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


def _reach(graph, keys: np.ndarray, hops: int,
           directions: Tuple[bool, ...] = (True, False)):
    """The repository's one breadth-first loop, over ``(label, node)`` pairs.

    A pair travels as the ``int64`` key ``label * num_nodes + node``;
    ``keys`` are the seed pairs, sorted and unique.  Each step asks for
    the whole frontier's edges in ``directions`` (``True`` out, ``False``
    in) and moves to their other endpoints under the same label, so one
    traversal serves a batch of independent seeds.  The visited set is a
    sorted key array probed by binary search.  Returns ``(visited,
    levels, edges)``: the sorted keys within ``hops`` steps of a seed;
    ``levels[d]`` those first met at step ``d`` (fewer than ``hops + 1``
    when a frontier empties); ``edges[d] = (origin, position, reached,
    types)``, the edges of ``levels[d]``, ``origin`` indexing it and
    ``reached`` the other endpoint's key.
    """
    if hops < 0:
        raise ValueError(f"hops must be non-negative, got {hops}")
    n = graph.num_nodes
    visited = frontier = keys
    levels, edges = [keys], []
    for _ in range(hops):
        if frontier.size == 0:
            break
        label, node = np.divmod(frontier, n)
        answers = [graph.incident_edges(node, out) for out in directions]
        origin, position, other, types = (
            answers[0] if len(answers) == 1
            else [np.concatenate(column) for column in zip(*answers)])
        reached = label[origin] * n + other
        _, seen = _position_in(visited, reached)
        frontier = _sorted_unique(reached[~seen])
        visited = np.sort(np.concatenate([visited, frontier]))
        levels.append(frontier)
        edges.append((origin, position, reached, types))
    return visited, levels, edges


def k_hop_nodes(graph, seeds: Sequence[int], hops: int) -> np.ndarray:
    """Return nodes within ``hops`` (undirected) hops of ``seeds``.

    The frontier expands over both in- and out-edges because supply-chain
    influence in the paper flows both ways through aggregation.  With
    several seeds the result is the union of the per-seed neighborhoods
    — the traversal of :func:`ego_subgraphs` with every seed under one
    label, where a pair's key is the node itself.
    Seeds outside ``[0, num_nodes)`` raise ``IndexError``.
    """
    return _reach(graph, _sorted_unique(_checked_seeds(graph, seeds)), hops)[0]


@dataclass
class ReceptiveLayout:
    """The rows and edges a forward over ``seeds`` reads, level-ordered.

    Rows come by the depth at which the model first reads them — the
    seeds, then the rows one ``src -> dst`` step upstream, two, ... —
    ``(label, node)`` order inside a level; edges by the level of their
    ``dst``, then label, then canonical position (the in-edges of one
    row keep the host graph's order, so segment sums add in it), only
    those into rows below the last level.  What an ``L``-layer model
    needs at each layer is therefore a *prefix*: ``rows_within[d]`` rows
    sit within ``d`` steps of a seed (``L + 1`` entries) and
    ``edges_into[d]`` edges lead into them (``L`` entries), every one
    with ``dst < rows_within[d]`` and ``src < rows_within[d + 1]``.

    ``rows`` are host node ids (what to gather features with), ``labels``
    the seed label each row was reached under, ``graph`` the edges
    relabelled to positions in ``rows``, ``seed_rows`` each seed's row.
    """

    graph: ESellerGraph
    rows: np.ndarray
    labels: np.ndarray
    seed_rows: np.ndarray
    rows_within: np.ndarray
    edges_into: np.ndarray


def receptive_layout(graph, seeds: Sequence[int], depth: int,
                     labelled: bool = False) -> ReceptiveLayout:
    """What a ``depth``-layer forward over ``seeds`` reads of ``graph``.

    ``depth`` is the model's :attr:`~repro.nn.module.Module.receptive_depth`.
    :func:`_reach` over in-edges: level ``d + 1`` holds the sources of
    the live in-edges of level ``d`` not met earlier, and those in-edges
    are what a layer aggregates into level ``d``, so ``depth`` graph
    queries build the whole layout.  ``labelled=False`` reads the seeds
    as one set (the training loss: ascending node order, a repeated seed
    one row); ``labelled=True`` gives seed ``i`` label ``i`` — the
    node-disjoint union the serving gateway scores, centers first in
    request order, a repeated center twice.  Seeds outside
    ``[0, num_nodes)`` raise ``IndexError``.
    """
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    seeds = _checked_seeds(graph, seeds)
    n = graph.num_nodes
    if labelled:                         # label-major: already sorted
        seed_keys = keys = np.arange(seeds.size, dtype=np.int64) * n + seeds
    else:
        seed_keys, keys = seeds, _sorted_unique(seeds)
    _, levels, edges = _reach(graph, keys, depth, directions=(False,))
    row_keys = np.concatenate(levels)
    sizes = [level.size for level in levels] + [0] * (depth + 1 - len(levels))
    # Where each key sits in the layout: every source of a kept edge is
    # at most one level above its destination, so it has a row.
    by_key = np.argsort(row_keys)
    sorted_keys = row_keys[by_key]
    empty = np.zeros(0, dtype=np.int64)
    src, dst, types, counts = [empty], [empty], [empty], []
    first = 0
    for level, (origin, position, reached, kinds) in zip(levels, edges):
        order = np.lexsort((position, level[origin] // n))
        src.append(by_key[sorted_keys.searchsorted(reached[order])])
        dst.append(first + origin[order])
        types.append(kinds[order])
        counts.append(order.size)
        first += level.size
    counts += [0] * (depth - len(counts))
    labels, rows = np.divmod(row_keys, n)
    return ReceptiveLayout(
        graph=ESellerGraph(row_keys.size, np.concatenate(src),
                           np.concatenate(dst), np.concatenate(types)),
        rows=rows,
        labels=labels,
        seed_rows=keys.searchsorted(seed_keys),
        rows_within=np.cumsum(sizes),
        edges_into=np.cumsum(counts, dtype=np.int64),
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
    keys = _reach(graph, seeds, hops)[0]
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

