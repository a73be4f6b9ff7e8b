"""Edge-cut partitioning algorithms over the e-seller graph.

Two families, matching how production graph-learning systems shard
training (AGL-style subgraph parallelism):

* :func:`hash_partition` — the stateless baseline: a node's shard is a
  deterministic hash of its id.  Perfect balance in expectation, but
  blind to topology, so the edge cut approaches ``(k-1)/k`` of all
  edges and every block reads most of its neighbourhood from others.
* :func:`greedy_bfs_partition` — grows ``k`` regions breadth-first from
  spread-out seeds under a hard balance cap, then runs a few
  label-propagation refinement passes that move boundary nodes to the
  shard holding most of their neighbors (capacity permitting).  Keeps
  supply chains and ownership cliques intact, which is what shrinks
  cut edges and the rows two blocks both read.

:func:`partition_graph` is the front door: it runs the chosen method and
wraps the assignment in a :class:`~repro.partition.partition.GraphPartition`.
"""

from __future__ import annotations

from collections import deque
from typing import List

import numpy as np

from ..graph.graph import ESellerGraph
from .partition import GraphPartition

__all__ = [
    "hash_partition",
    "greedy_bfs_partition",
    "label_propagation_refine",
    "partition_graph",
]


def _check_k(graph: ESellerGraph, num_partitions: int) -> None:
    if num_partitions <= 0:
        raise ValueError(f"num_partitions must be positive, got {num_partitions}")
    if num_partitions > graph.num_nodes:
        raise ValueError(
            f"cannot split {graph.num_nodes} nodes into {num_partitions} partitions"
        )


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 mix function (deterministic across runs)."""
    with np.errstate(over="ignore"):
        z = x + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _undirected_adjacency(graph: ESellerGraph):
    """CSR over the symmetrised edge list: ``(indptr, neighbor_ids)``."""
    ends = np.concatenate([graph.src, graph.dst])
    nbrs = np.concatenate([graph.dst, graph.src])
    order = np.argsort(ends, kind="stable")
    indptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, ends + 1, 1)
    return np.cumsum(indptr), nbrs[order]


def hash_partition(
    graph: ESellerGraph, num_partitions: int, seed: int = 0
) -> np.ndarray:
    """Topology-blind baseline: shard = hash(node id) mod k.

    Deterministic for a given ``seed``.  Empty shards (possible on tiny
    graphs) are repaired by reassigning nodes from the largest shard, so
    every shard always owns at least one node.
    """
    _check_k(graph, num_partitions)
    ids = np.arange(graph.num_nodes, dtype=np.uint64)
    with np.errstate(over="ignore"):
        salt = np.uint64(seed) * np.uint64(0xD6E8FEB86659FD93)
    mixed = _splitmix64(ids ^ salt)
    assignment = (mixed % np.uint64(num_partitions)).astype(np.int64)
    sizes = np.bincount(assignment, minlength=num_partitions)
    for pid in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))
        victim = int(np.flatnonzero(assignment == donor)[0])
        assignment[victim] = pid
        sizes[donor] -= 1
        sizes[pid] += 1
    return assignment


def _pick_seeds(
    graph: ESellerGraph,
    num_partitions: int,
    indptr: np.ndarray,
    adjacency: np.ndarray,
    rng: np.random.Generator,
) -> List[int]:
    """Spread-out region seeds: highest-degree start, then BFS-farthest.

    Unreached nodes (other components) are preferred over far-but-reached
    ones so each component gets its own region when shards allow.
    """
    degrees = indptr[1:] - indptr[:-1]
    seeds = [int(np.argmax(degrees))]
    dist = np.full(graph.num_nodes, -1, dtype=np.int64)
    for _ in range(num_partitions - 1):
        # Multi-source BFS from the current seed set.
        dist[:] = -1
        frontier = deque(seeds)
        for s in seeds:
            dist[s] = 0
        while frontier:
            v = frontier.popleft()
            for u in adjacency[indptr[v]:indptr[v + 1]]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    frontier.append(u)
        unreached = np.flatnonzero(dist < 0)
        if unreached.size:
            nxt = int(unreached[np.argmax(degrees[unreached])])
        else:
            nxt = int(np.argmax(dist))
            if dist[nxt] == 0:  # graph smaller than k: fall back to random
                free = np.setdiff1d(np.arange(graph.num_nodes), np.array(seeds))
                nxt = int(rng.choice(free))
        seeds.append(nxt)
    return seeds


def label_propagation_refine(
    graph: ESellerGraph,
    assignment: np.ndarray,
    capacity: int,
    passes: int = 2,
    seed: int = 0,
    adjacency=None,
) -> np.ndarray:
    """Move boundary nodes to their neighbors' plurality shard.

    Each pass visits nodes in a seeded random order; a node moves only
    when strictly more of its neighbors live in the target shard than in
    its current one, the target is below ``capacity``, and the source
    shard keeps at least one node.  Returns a new assignment array.

    ``adjacency`` optionally reuses a prebuilt symmetrised CSR
    ``(indptr, neighbor_ids)`` pair (the BFS partitioner already has
    one); omitted, it is built here.
    """
    assignment = np.asarray(assignment, dtype=np.int64).copy()
    num_partitions = int(assignment.max()) + 1
    if adjacency is None:
        adjacency = _undirected_adjacency(graph)
    indptr, adjacency = adjacency
    sizes = np.bincount(assignment, minlength=num_partitions)
    rng = np.random.default_rng(seed)
    for _ in range(passes):
        moved = 0
        for v in rng.permutation(graph.num_nodes):
            nbrs = adjacency[indptr[v]:indptr[v + 1]]
            if nbrs.size == 0:
                continue
            counts = np.bincount(assignment[nbrs], minlength=num_partitions)
            cur = assignment[v]
            best = int(np.argmax(counts))
            if (
                best != cur
                and counts[best] > counts[cur]
                and sizes[best] < capacity
                and sizes[cur] > 1
            ):
                assignment[v] = best
                sizes[cur] -= 1
                sizes[best] += 1
                moved += 1
        if moved == 0:
            break
    return assignment


def greedy_bfs_partition(
    graph: ESellerGraph,
    num_partitions: int,
    balance_slack: float = 0.1,
    refine_passes: int = 2,
    seed: int = 0,
) -> np.ndarray:
    """Grow ``k`` balanced regions breadth-first, then refine boundaries.

    Every shard's owned size is capped at ``ceil(n / k * (1 +
    balance_slack))``; a region whose frontier starves (component
    exhausted) restarts from the highest-degree unassigned node, so the
    result always covers all nodes — isolated nodes included.
    """
    _check_k(graph, num_partitions)
    if balance_slack < 0:
        raise ValueError(f"balance_slack must be non-negative, got {balance_slack}")
    n = graph.num_nodes
    capacity = int(np.ceil(n / num_partitions * (1.0 + balance_slack)))
    capacity = max(capacity, int(np.ceil(n / num_partitions)))
    rng = np.random.default_rng(seed)
    indptr, adjacency = _undirected_adjacency(graph)
    degrees = indptr[1:] - indptr[:-1]

    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_partitions, dtype=np.int64)
    frontiers: List[deque] = [deque() for _ in range(num_partitions)]
    seeds = _pick_seeds(graph, num_partitions, indptr, adjacency, rng)
    for pid, s in enumerate(seeds):
        assignment[s] = pid
        sizes[pid] = 1
        frontiers[pid].extend(adjacency[indptr[s]:indptr[s + 1]])

    # Unassigned nodes in descending-degree order feed starved regions.
    restart_order = np.argsort(-degrees, kind="stable")
    restart_pos = 0
    remaining = n - num_partitions
    while remaining > 0:
        progressed = False
        for pid in range(num_partitions):
            if sizes[pid] >= capacity or remaining == 0:
                continue
            frontier = frontiers[pid]
            claimed = -1
            while frontier:
                cand = frontier.popleft()
                if assignment[cand] < 0:
                    claimed = int(cand)
                    break
            if claimed < 0:
                # Frontier starved: restart from a fresh unassigned node
                # (one must exist while remaining > 0 — restart_pos only
                # skips already-assigned nodes).
                while restart_pos < n and assignment[restart_order[restart_pos]] >= 0:
                    restart_pos += 1
                claimed = int(restart_order[restart_pos])
            assignment[claimed] = pid
            sizes[pid] += 1
            remaining -= 1
            progressed = True
            frontier.extend(adjacency[indptr[claimed]:indptr[claimed + 1]])
        if not progressed:
            # capacity >= ceil(n / k) guarantees a below-capacity region
            # exists whenever nodes remain, and a starved region always
            # restarts — so this cannot happen; guard against regressions
            # rather than loop forever.
            raise RuntimeError(
                f"partitioner stalled with {remaining} nodes unassigned"
            )
    if refine_passes > 0:
        assignment = label_propagation_refine(
            graph, assignment, capacity, passes=refine_passes, seed=seed,
            adjacency=(indptr, adjacency),
        )
    return assignment


def partition_graph(
    graph: ESellerGraph,
    num_partitions: int,
    method: str = "bfs",
    balance_slack: float = 0.1,
    refine_passes: int = 2,
    seed: int = 0,
) -> GraphPartition:
    """Partition a graph in one call.

    ``method`` is ``"bfs"`` (greedy BFS + label-propagation refinement)
    or ``"hash"`` (stateless baseline).
    """
    if method == "bfs":
        assignment = greedy_bfs_partition(
            graph,
            num_partitions,
            balance_slack=balance_slack,
            refine_passes=refine_passes,
            seed=seed,
        )
    elif method == "hash":
        assignment = hash_partition(graph, num_partitions, seed=seed)
    else:
        raise ValueError(f"unknown partition method {method!r}")
    return GraphPartition.from_assignment(graph, assignment)
