"""Shared test utilities: gradient checking and a hypothesis-free
property-test harness (seeded trial runner with shrinking-lite)."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.graph import ESellerGraph
from repro.nn.tensor import Tensor


# ----------------------------------------------------------------------
# property-test harness (no hypothesis dependency)
# ----------------------------------------------------------------------
class PropertyError(AssertionError):
    """A property violated by some generated case, reported minimally."""


def forall(
    gen: Callable[[np.random.Generator], object],
    prop: Callable[[object], None],
    trials: int = 100,
    seed: int = 0,
    shrink: Optional[Callable[[object], Iterable[object]]] = None,
    max_shrinks: int = 200,
    name: str = "property",
) -> None:
    """Assert ``prop(gen(rng))`` holds for ``trials`` seeded random cases.

    ``gen`` draws one case from the given generator; ``prop`` raises
    ``AssertionError`` on violation.  On failure, if ``shrink`` is given
    (``case -> iterable of strictly simpler candidate cases``), the case
    is greedily minimised — shrinking-lite: first still-failing
    candidate wins, repeated until no candidate fails or the
    ``max_shrinks`` probe budget runs out — and the minimal case is
    reported with the trial index and seed needed to replay it.
    """

    def fails(case) -> Optional[AssertionError]:
        try:
            prop(case)
        except AssertionError as error:
            return error
        return None

    rng = np.random.default_rng(seed)
    for trial in range(trials):
        case = gen(rng)
        error = fails(case)
        if error is None:
            continue
        probes = 0
        if shrink is not None:
            shrinking = True
            while shrinking and probes < max_shrinks:
                shrinking = False
                for candidate in shrink(case):
                    probes += 1
                    smaller_error = fails(candidate)
                    if smaller_error is not None:
                        case, error = candidate, smaller_error
                        shrinking = True
                        break
                    if probes >= max_shrinks:
                        break
        raise PropertyError(
            f"{name} violated at trial {trial} (seed={seed}, "
            f"{probes} shrink probes)\ncase: {case!r}\n{error}"
        ) from error


def scan_evicts(nodes: Optional[np.ndarray], touched) -> bool:
    """Reference for cache delta invalidation: the per-entry ``np.isin``
    test the serving caches ran before they were indexed by node.  An
    entry with unknown node set goes with every non-empty frontier."""
    touched = np.asarray(touched, dtype=np.int64)
    if touched.size == 0:
        return False
    return nodes is None or bool(np.isin(touched, nodes).any())


def random_eseller_graph(
    rng: np.random.Generator,
    max_nodes: int = 40,
    max_edges: int = 120,
    min_nodes: int = 1,
) -> ESellerGraph:
    """Draw a small random directed multigraph (self-loops, duplicate
    edges and isolated nodes all possible — the adversarial corners)."""
    num_nodes = int(rng.integers(min_nodes, max_nodes + 1))
    num_edges = int(rng.integers(0, max_edges + 1))
    if num_nodes == 0:
        num_edges = 0
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    types = rng.integers(0, 3, size=num_edges)
    return ESellerGraph(num_nodes, src, dst, types)


def shrink_graph(graph: ESellerGraph) -> Iterable[ESellerGraph]:
    """Shrinking-lite candidates for a random graph: halve the edge
    list, drop single edges, then trim trailing isolated nodes."""
    e = graph.num_edges
    if e > 1:
        half = e // 2
        yield ESellerGraph(
            graph.num_nodes, graph.src[:half], graph.dst[:half], graph.edge_types[:half]
        )
        yield ESellerGraph(
            graph.num_nodes, graph.src[half:], graph.dst[half:], graph.edge_types[half:]
        )
    for drop in range(min(e, 8)):
        keep = np.arange(e) != drop
        yield ESellerGraph(
            graph.num_nodes, graph.src[keep], graph.dst[keep], graph.edge_types[keep]
        )
    used = int(max(graph.src.max(), graph.dst.max())) + 1 if e else 1
    if used < graph.num_nodes:
        yield ESellerGraph(used, graph.src, graph.dst, graph.edge_types)


# ----------------------------------------------------------------------
# receptive-layout oracle: the edge-list path serving and training took
# before one directed traversal of the graph replaced it
# ----------------------------------------------------------------------
def receptive_levels_oracle(src, dst, num_nodes: int, seeds,
                            depth: int) -> np.ndarray:
    """Per node, the fewest ``src -> dst`` steps to a seed (``depth + 1``
    beyond reach): one boolean pass over the whole edge list per level."""
    level = np.full(num_nodes, depth + 1, dtype=np.int64)
    level[np.asarray(seeds, dtype=np.int64)] = 0
    for d in range(depth):
        reached = src[level[dst] == d]
        reached = reached[level[reached] > depth]
        if reached.size == 0:
            break
        level[reached] = d + 1
    return level


def receptive_layout_oracle(src, dst, edge_types, num_nodes: int, seeds,
                            depth: int) -> SimpleNamespace:
    """The level-ordered layout of an edge list: rows stably sorted by
    level, edges stably sorted by the level of their ``dst`` and kept
    below the last one.  ``rows`` index the edge list's nodes."""
    seeds = np.asarray(seeds, dtype=np.int64)
    level = receptive_levels_oracle(src, dst, num_nodes, seeds, depth)
    rows_within = np.bincount(level, minlength=depth + 1)[:depth + 1].cumsum()
    edge_level = level[dst]
    edges_into = np.bincount(edge_level, minlength=depth)[:depth].cumsum()
    rows = np.argsort(level, kind="stable")[:rows_within[-1]]
    edges = np.argsort(edge_level, kind="stable")
    edges = edges[:np.count_nonzero(edge_level < depth)]
    row_of = np.empty(num_nodes, dtype=np.int64)
    row_of[rows] = np.arange(rows.size, dtype=np.int64)
    return SimpleNamespace(
        graph=ESellerGraph(rows.size, row_of[src[edges]], row_of[dst[edges]],
                           edge_types[edges]),
        rows=rows, seed_rows=row_of[seeds], rows_within=rows_within,
        edges_into=edges_into)


def ego_union_oracle(egos, depth: int) -> SimpleNamespace:
    """The old serving union: the egos stitched with offset node ids,
    then laid out seeded by their centers.  ``rows`` are host node ids."""
    sizes = np.array([ego.num_nodes for ego in egos], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    shift = offsets.repeat([ego.subgraph.num_edges for ego in egos])
    layout = receptive_layout_oracle(
        np.concatenate([ego.subgraph.src for ego in egos]) + shift,
        np.concatenate([ego.subgraph.dst for ego in egos]) + shift,
        np.concatenate([ego.subgraph.edge_types for ego in egos]),
        int(sizes.sum()),
        offsets + np.array([ego.center_local for ego in egos], dtype=np.int64),
        depth)
    layout.rows = np.concatenate([ego.nodes for ego in egos])[layout.rows]
    return layout


def numerical_gradient(fn: Callable[[], float], array: np.ndarray,
                       eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``fn()`` w.r.t. ``array`` in place."""
    grad = np.zeros_like(array)
    iterator = np.nditer(array, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = array[index]
        array[index] = original + eps
        plus = fn()
        array[index] = original - eps
        minus = fn()
        array[index] = original
        grad[index] = (plus - minus) / (2.0 * eps)
        iterator.iternext()
    return grad


def check_gradients(build_loss: Callable[[Sequence[Tensor]], Tensor],
                    tensors: Sequence[Tensor], atol: float = 1e-5) -> None:
    """Assert autograd gradients match finite differences.

    ``build_loss`` maps the given leaf tensors to a scalar loss; it is
    re-invoked for each probe so it must be deterministic.
    """
    for tensor in tensors:
        tensor.zero_grad()
    loss = build_loss(tensors)
    loss.backward()

    def scalar() -> float:
        fresh = [Tensor(t.data) for t in tensors]
        return build_loss(fresh).item()

    for tensor in tensors:
        assert tensor.grad is not None, "missing gradient"
        numeric = numerical_gradient(scalar, tensor.data)
        max_err = np.abs(numeric - tensor.grad).max()
        assert max_err < atol, f"gradient mismatch: max err {max_err}"
