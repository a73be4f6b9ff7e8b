"""Property-based invariants for ``repro.graph.sampling``.

Seeded random multigraphs (self-loops, duplicate edges, isolated nodes)
are thrown at the frontier expansion, batched ego-subgraph extraction
and vectorised neighbor sampling, and each result is checked against a
brute-force reference.  The extraction properties run over every holder
of the same live graph (:func:`views`): the static ``ESellerGraph``, a
``DynamicGraph`` carrying it as base + overlay + tombstones + grown
nodes, and that overlay after ``compact()`` — one loop serves them all,
so one oracle checks them all.  The sequential extractor lives here, as
the reference (:func:`brute_force_ego`: a textbook BFS per center plus
an ordered ``O(E)`` edge filter); ``TestOneTraversalPerBatch`` holds the
batched one to a query count and an allocation ceiling.
``TestReceptiveLayout`` holds a trimmed forward's computation graph —
:func:`repro.graph.sampling.receptive_layout`, called on any seed set
under one label (what the training loss does) and one label per center
(what the gateway gathers with :func:`repro.serving.gather_batch`), on
every view — to a per-seed reverse-reach BFS written here and, array
for array, to the edge-list path it replaced (``ego_subgraphs`` + the
level-ordered layout of the stitched union, kept in ``helpers``).  The
harness is :func:`tests.helpers.forall` — hypothesis-free trials with
shrinking-lite minimisation.
"""

import tracemalloc
from collections import deque

import numpy as np
import pytest

from repro.data.dataset import InstanceBatch
from repro.graph import ESellerGraph, ego_subgraph, ego_subgraphs, k_hop_nodes
from repro.graph.sampling import receptive_layout
from repro.serving import build_disjoint_batch, gather_batch
from repro.streaming import DynamicGraph

from helpers import (
    ego_union_oracle,
    forall,
    random_eseller_graph,
    receptive_layout_oracle,
    shrink_graph,
)

TRIALS = 60


def brute_force_k_hop(graph: ESellerGraph, seeds, hops: int) -> np.ndarray:
    """Reference BFS over an explicit undirected adjacency dict."""
    adjacency = {v: set() for v in range(graph.num_nodes)}
    for s, d in zip(graph.src, graph.dst):
        adjacency[int(s)].add(int(d))
        adjacency[int(d)].add(int(s))
    dist = {int(s): 0 for s in seeds}
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        if dist[v] >= hops:
            continue
        for u in adjacency[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return np.array(sorted(dist), dtype=np.int64)


def induced_edge_multiset(graph: ESellerGraph, nodes: np.ndarray):
    """Sorted multiset of (src, dst, type) edges induced on ``nodes``."""
    members = np.zeros(graph.num_nodes, dtype=bool)
    members[nodes] = True
    keep = members[graph.src] & members[graph.dst]
    triples = list(
        zip(graph.src[keep].tolist(), graph.dst[keep].tolist(),
            graph.edge_types[keep].tolist())
    )
    return sorted(triples)


def brute_force_ego(graph: ESellerGraph, center: int, hops: int):
    """The sequential extractor, kept here as the reference: one textbook
    BFS per center, then an O(E) pass keeping the induced edges *in
    order*.  Returns ``(nodes, center_local, src, dst, types)``."""
    nodes = brute_force_k_hop(graph, [center], hops)
    members = np.zeros(graph.num_nodes, dtype=bool)
    members[nodes] = True
    keep = members[graph.src] & members[graph.dst]
    return (nodes, int(np.searchsorted(nodes, center)),
            np.searchsorted(nodes, graph.src[keep]),
            np.searchsorted(nodes, graph.dst[keep]),
            graph.edge_types[keep])


def assert_ego_equals(ego, center, reference, context):
    nodes, center_local, src, dst, types = reference
    assert ego.center == center, context
    assert ego.center_local == center_local, context
    assert ego.subgraph.num_nodes == ego.num_nodes == nodes.size, context
    for got, want in ((ego.nodes, nodes), (ego.subgraph.src, src),
                      (ego.subgraph.dst, dst), (ego.subgraph.edge_types, types)):
        assert got.dtype == np.int64 and np.array_equal(got, want), context


def overlay_view(graph: ESellerGraph) -> DynamicGraph:
    """The same live graph, held as base + overlay + tombstones.

    A prefix of the nodes and the edge prefix it can hold is the frozen
    base, salted with decoy edges that are then retired (base tombstones); the
    remaining nodes are grown with ``add_shop`` and the remaining edges
    arrive as overlay additions, interleaved with add-then-retire decoy
    pairs (overlay tombstones).  A decoy's key never equals a generated
    edge's, so LIFO retirement removes exactly the decoys and the live
    edges keep the generated order.  The split is a pure function of the
    graph, so shrunk cases re-split themselves.
    """
    n, e = graph.num_nodes, graph.num_edges
    rng = np.random.default_rng([n, e])
    edges = list(zip(graph.src.tolist(), graph.dst.tolist(),
                     graph.edge_types.tolist()))
    taken = set(edges)

    def decoy(limit):
        for _ in range(8):
            key = (int(rng.integers(limit)), int(rng.integers(limit)),
                   int(rng.integers(3)))
            if key not in taken:
                return key
        return None

    base_nodes = n if rng.random() < 0.5 else int(rng.integers(1, n + 1))
    split = int(rng.integers(0, e + 1))
    for position, (s, d, _) in enumerate(edges[:split]):
        if max(s, d) >= base_nodes:     # the base is a prefix it can hold
            split = position
            break
    rows = edges[:split]
    base_decoys = [key for key in (decoy(base_nodes) for _ in range(3)) if key]
    for key in base_decoys:
        rows.insert(int(rng.integers(0, len(rows) + 1)), key)
    columns = [list(column) for column in zip(*rows)] or [[], [], []]
    dyn = DynamicGraph(ESellerGraph(base_nodes, *columns),
                       compact_threshold=None)
    while dyn.num_nodes < n:
        dyn.add_shop()
    for key in base_decoys:
        dyn.retire_edge(*key)
    for edge in edges[split:]:
        key = decoy(n) if rng.random() < 0.3 else None
        if key:
            dyn.add_edge(*key)
            dyn.retire_edge(*key)
        dyn.add_edge(*edge)
    return dyn


def views(graph: ESellerGraph):
    """Every holder of the generated live graph the extractor serves."""
    yield "static", graph
    dyn = overlay_view(graph)
    yield "overlay", dyn
    dyn.compact()
    yield "compacted", dyn


def graph_seeds_hops(rng: np.random.Generator):
    graph = random_eseller_graph(rng, max_nodes=30, max_edges=90)
    num_seeds = int(rng.integers(1, min(graph.num_nodes, 4) + 1))
    seeds = rng.choice(graph.num_nodes, size=num_seeds, replace=False)
    hops = int(rng.integers(0, 4))
    return graph, seeds, hops


def shrink_case(case):
    graph, seeds, hops = case
    for smaller in shrink_graph(graph):
        kept = seeds[seeds < smaller.num_nodes]
        if kept.size:
            yield smaller, kept, hops
    if seeds.size > 1:
        yield graph, seeds[:1], hops
    if hops > 0:
        yield graph, seeds, hops - 1


class TestKHopFrontier:
    def test_matches_brute_force_bfs(self):
        """CSR frontier expansion == textbook BFS, for any graph/seeds/hops."""

        def prop(case):
            graph, seeds, hops = case
            slow = brute_force_k_hop(graph, seeds, hops)
            for kind, view in views(graph):
                fast = k_hop_nodes(view, seeds, hops)
                assert np.array_equal(fast, slow), f"{kind}: {fast} != {slow}"

        forall(graph_seeds_hops, prop, trials=TRIALS, seed=11,
               shrink=shrink_case, name="k_hop_nodes == BFS")

    def test_multi_seed_is_union_of_single_seeds(self):
        def prop(case):
            graph, seeds, hops = case
            for kind, view in views(graph):
                joint = k_hop_nodes(view, seeds, hops)
                union = np.unique(np.concatenate(
                    [k_hop_nodes(view, [s], hops) for s in seeds]
                ))
                assert np.array_equal(joint, union), kind

        forall(graph_seeds_hops, prop, trials=TRIALS, seed=12,
               shrink=shrink_case, name="multi-seed k_hop is a union")


class TestEgoSubgraphs:
    def test_union_node_sets_exact(self):
        """Batched extraction covers exactly the seeds' k-hop closure and
        each per-center set equals the single-seed extraction."""

        def prop(case):
            graph, seeds, hops = case
            for kind, view in views(graph):
                egos = ego_subgraphs(view, seeds, hops)
                union = np.unique(np.concatenate([ego.nodes for ego in egos]))
                expected = k_hop_nodes(view, seeds, hops)
                assert np.array_equal(union, expected), kind
                for ego in egos:
                    single = ego_subgraph(view, ego.center, hops)
                    assert np.array_equal(ego.nodes, single.nodes), kind
                    assert ego.center_local == single.center_local, kind
                    assert int(ego.nodes[ego.center_local]) == ego.center, kind

        forall(graph_seeds_hops, prop, trials=TRIALS, seed=13,
               shrink=shrink_case, name="ego_subgraphs union exactness")

    def test_subgraph_edges_are_induced(self):
        """Every ego's relabelled edge list is exactly the induced multiset
        — and through the overlay it is the cold graph's list *in order*:
        edge order fixes the float accumulation order of message passing,
        hence forecast bits."""

        def prop(case):
            graph, seeds, hops = case
            cold = ego_subgraphs(graph, seeds, hops)
            for kind, view in views(graph):
                for ego, ref in zip(ego_subgraphs(view, seeds, hops), cold):
                    local = list(
                        zip(ego.nodes[ego.subgraph.src].tolist(),
                            ego.nodes[ego.subgraph.dst].tolist(),
                            ego.subgraph.edge_types.tolist())
                    )
                    assert sorted(local) == induced_edge_multiset(graph, ego.nodes), kind
                    assert np.array_equal(ego.subgraph.src, ref.subgraph.src), kind
                    assert np.array_equal(ego.subgraph.dst, ref.subgraph.dst), kind
                    assert np.array_equal(ego.subgraph.edge_types,
                                          ref.subgraph.edge_types), kind

        forall(graph_seeds_hops, prop, trials=TRIALS, seed=14,
               shrink=shrink_case, name="ego subgraphs are induced")

    def test_overlay_arm_is_not_vacuous(self):
        """The overlay views really carry base tombstones, overlay edges,
        overlay tombstones and grown nodes — and fold to the generated
        graph exactly (the live view *is* the generated graph)."""
        rng = np.random.default_rng(14)
        seen = {"base_dead": 0, "overlay": 0, "overlay_dead": 0, "grown": 0}
        for _ in range(TRIALS):
            graph, _, _ = graph_seeds_hops(rng)
            dyn = overlay_view(graph)
            seen["base_dead"] += dyn._dead > 0
            seen["overlay"] += dyn.overlay_size > 0
            seen["overlay_dead"] += dyn.tombstones > dyn._dead
            seen["grown"] += dyn.base.num_nodes < dyn.num_nodes
            folded = dyn.compact()
            assert folded.num_nodes == graph.num_nodes
            assert np.array_equal(folded.src, graph.src)
            assert np.array_equal(folded.dst, graph.dst)
            assert np.array_equal(folded.edge_types, graph.edge_types)
        assert all(count >= TRIALS // 4 for count in seen.values()), seen

    def test_grown_node_is_a_seed_like_any_other(self):
        """A shop added beyond the base is isolated until linked, then
        reaches — and is reached — through overlay edges only."""
        dyn = DynamicGraph(ESellerGraph(3, [0, 1], [1, 2], [0, 0]),
                           compact_threshold=None)
        grown = dyn.add_shop()
        assert k_hop_nodes(dyn, [grown], 2).tolist() == [grown]
        assert ego_subgraph(dyn, grown, 2).subgraph.num_edges == 0
        dyn.add_edge(grown, 1, 2)
        for view in (dyn, dyn.as_graph()):
            ego = ego_subgraph(view, grown, 1)
            assert ego.nodes.tolist() == [1, grown] and ego.center_local == 1
            assert ego.subgraph.edge_types.tolist() == [2]
            assert k_hop_nodes(view, [0], 2).tolist() == [0, 1, 2, grown]


    def test_batches_with_repeats_equal_the_sequential_reference(self):
        """1–40 centers drawn *with* repeats, hops 0–3, all three views:
        one ego per position, each array-identical — nodes, center_local,
        src, dst, types, in order — to the brute-force extractor."""

        def gen(rng: np.random.Generator):
            graph = random_eseller_graph(rng, max_nodes=30, max_edges=90)
            centers = rng.integers(0, graph.num_nodes,
                                   size=int(rng.integers(1, 41)))
            return graph, centers, int(rng.integers(0, 4))

        def prop(case):
            graph, centers, hops = case
            wanted = {int(c): brute_force_ego(graph, int(c), hops)
                      for c in np.unique(centers)}
            for kind, view in views(graph):
                egos = ego_subgraphs(view, centers, hops)
                assert len(egos) == centers.size, kind
                for position, (ego, center) in enumerate(zip(egos, centers)):
                    assert_ego_equals(ego, int(center), wanted[int(center)],
                                      (kind, position))

        forall(gen, prop, trials=TRIALS, seed=16, shrink=shrink_case,
               name="batched egos == sequential reference")

    def test_degenerate_batches(self):
        """What the gateway can hand the batch entry point: no centers
        (every ego of a group was a cache hit), ``hops=0``, a graph
        without edges, the same center in every position."""
        lonely = ESellerGraph(5, [], [], [])
        chain = ESellerGraph(4, [0, 1, 2, 2], [1, 2, 3, 2], [0, 1, 2, 0])
        # hops=0 keeps only the center: chain's self-loop on 2 is its one edge.
        for graph, loops_on_2 in ((lonely, 0), (chain, 1)):
            for kind, view in views(graph):
                for hops in range(3):
                    assert ego_subgraphs(view, [], hops) == [], kind
                    assert ego_subgraphs(
                        view, np.zeros(0, dtype=np.int64), hops) == [], kind
                    centers = [3, 0, 3, 3]
                    egos = ego_subgraphs(view, centers, hops)
                    for ego, center in zip(egos, centers):
                        assert_ego_equals(
                            ego, center, brute_force_ego(graph, center, hops),
                            (kind, hops, center))
                isolated = ego_subgraphs(view, [2, 2], 0)
                assert [ego.nodes.tolist() for ego in isolated] == [[2], [2]]
                assert [ego.subgraph.num_edges for ego in isolated] \
                    == [loops_on_2, loops_on_2], kind

    @pytest.mark.parametrize("bad", [[-1], [0, -3], [2, 4], [99, 1]])
    def test_out_of_range_centers_raise_before_any_traversal(self, bad):
        graph = ESellerGraph(4, [0, 1], [1, 2], [0, 0])
        for kind, view in views(graph):
            asked = CountingGraph(view)
            with pytest.raises(IndexError, match=r"seeds out of range \[0, 4\)"):
                ego_subgraphs(asked, bad, 2)
            with pytest.raises(IndexError, match=r"seeds out of range \[0, 4\)"):
                k_hop_nodes(asked, bad, 2)
            assert asked.calls == [], kind

    def test_grown_node_as_center_and_as_neighbour_in_one_batch(self):
        """Grown shops have no row in the base CSR: as frontier members
        they must skip it *with their labels*, or a neighbour's ball
        would pick up another label's edges."""
        dyn = DynamicGraph(ESellerGraph(4, [0, 1, 2], [1, 2, 3], [0, 1, 2]),
                           compact_threshold=None)
        first, second = dyn.add_shop(), dyn.add_shop()
        dyn.add_edge(first, 0, 1)
        dyn.add_edge(3, second, 2)
        dyn.add_edge(second, second, 0)
        centers = [first, 0, second, 3, first, 2]
        cold = ESellerGraph(6, [0, 1, 2, first, 3, second],
                            [1, 2, 3, 0, second, second], [0, 1, 2, 1, 2, 0])
        for hops in range(4):
            egos = ego_subgraphs(dyn, centers, hops)
            assert dyn.overlay_size == 3 and dyn.base.num_nodes == 4
            for ego, center in zip(egos, centers):
                assert_ego_equals(ego, center,
                                  brute_force_ego(cold, center, hops),
                                  (hops, center))


def reverse_reach_levels(src, dst, num_nodes, seeds, depth):
    """Reference: a BFS over in-edges from every seed on its own; per
    node the fewest ``src -> dst`` steps to any seed, ``depth + 1`` when
    none reads it within ``depth``."""
    incoming = {v: [] for v in range(num_nodes)}
    for s, d in zip(np.asarray(src).tolist(), np.asarray(dst).tolist()):
        incoming[d].append(s)
    best = [depth + 1] * num_nodes
    for seed in np.asarray(seeds).tolist():
        dist = {seed: 0}
        queue = deque([seed])
        while queue:
            v = queue.popleft()
            if dist[v] == depth:
                continue
            for u in incoming[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        for v, steps in dist.items():
            best[v] = min(best[v], steps)
    return np.array(best, dtype=np.int64)


def id_batch(num_nodes: int) -> InstanceBatch:
    """A feature batch whose ``series`` column is the shop's own index,
    so a stitched batch says which original shop each of its rows is."""
    ids = np.arange(num_nodes, dtype=np.float64)
    blank = np.zeros((num_nodes, 1))
    return InstanceBatch(
        cutoff=0, series=ids[:, None], series_scaled=blank, mask=blank > 0,
        temporal=np.zeros((num_nodes, 1, 1)), static=blank, labels=blank,
        labels_scaled=blank, levels=ids, scaler=None)


def assert_level_ordered_prefix(whole, whole_ids, seeds, depth, graph, ids,
                                rows_within, edges_into):
    """``graph`` / ``ids`` / the two prefix counts are the level-ordered
    layout of the edge list ``whole`` for ``seeds``, against the oracle's
    levels.  ``whole_ids`` / ``ids`` name the rows of either side (a
    stitched batch repeats shops).  Returns the kept rows of ``whole``."""
    level = reverse_reach_levels(whole.src, whole.dst, whole.num_nodes,
                                 seeds, depth)
    rows = np.argsort(level, kind="stable")
    rows = rows[:int((level <= depth).sum())]
    counts = np.cumsum(np.bincount(level, minlength=depth + 2))
    assert np.array_equal(rows_within, counts[:depth + 1])
    assert graph.num_nodes == ids.size == rows.size
    assert np.array_equal(ids, whole_ids[rows])

    into = level[whole.dst]
    edges = np.argsort(into, kind="stable")
    edges = edges[:int((into < depth).sum())]
    row_of = np.full(whole.num_nodes, -1)
    row_of[rows] = np.arange(rows.size)
    assert np.array_equal(graph.src, row_of[whole.src[edges]])
    assert np.array_equal(graph.dst, row_of[whole.dst[edges]])
    assert np.array_equal(graph.edge_types, whole.edge_types[edges])
    assert np.array_equal(
        edges_into, np.cumsum(np.bincount(into, minlength=depth + 2))[:depth])
    assert np.all(np.diff(rows_within) >= 0)
    assert np.all(np.diff(edges_into) >= 0)
    for d in range(depth):
        prefix = slice(0, int(edges_into[d]))
        assert np.all(graph.dst[prefix] < rows_within[d])
        assert np.all(graph.src[prefix] < rows_within[d + 1])
    # Inside one dst the in-edges keep the whole edge list's order
    # (segment sums add in scan order).
    for row in np.unique(graph.dst):
        mine = graph.dst == row
        theirs = whole.dst == rows[row]
        assert np.array_equal(ids[graph.src[mine]],
                              whole_ids[whole.src[theirs]])
        assert np.array_equal(graph.edge_types[mine],
                              whole.edge_types[theirs])
    return rows


def layout_levels(layout, num_nodes, depth):
    """Per host node, the level ``layout`` (one label) puts it at."""
    level = np.full(num_nodes, depth + 1, dtype=np.int64)
    level[layout.rows] = np.searchsorted(
        layout.rows_within, np.arange(layout.rows.size), side="right")
    return level


class TestReceptiveLayout:
    """What an ``L``-layer forward reads of a graph, and where."""

    def test_levels_match_per_seed_reverse_reach(self):
        """Directed in-reach on every view == one BFS per seed: repeated
        seeds, self-loops, seeds nothing leads into, ``L`` 0–3."""

        def gen(rng: np.random.Generator):
            graph = random_eseller_graph(rng, max_nodes=30, max_edges=90)
            seeds = rng.integers(0, graph.num_nodes,
                                 size=int(rng.integers(1, 9)))
            return graph, seeds, int(rng.integers(0, 4))

        def prop(case):
            graph, seeds, depth = case
            want = reverse_reach_levels(graph.src, graph.dst, graph.num_nodes,
                                        seeds, depth)
            for kind, view in views(graph):
                layout = receptive_layout(view, seeds, depth)
                got = layout_levels(layout, graph.num_nodes, depth)
                assert np.array_equal(got, want), f"{kind}: {got} != {want}"
                assert not layout.labels.any(), kind

        forall(gen, prop, trials=TRIALS, seed=31, shrink=shrink_case,
               name="receptive_layout levels == per-seed reverse reach")
        with pytest.raises(ValueError, match="non-negative"):
            receptive_layout(ESellerGraph(1, [], [], []), [0], -1)
        with pytest.raises(IndexError, match="out of range"):
            receptive_layout(ESellerGraph(1, [], [], []), [1], 1)

    def test_layout_of_any_seed_set_is_the_level_ordered_prefix(self):
        """``receptive_layout`` as the training loss calls it: a whole
        graph, a sorted set of loss rows (one row up to all of them),
        ``L`` 1–3, against the per-seed oracle and, array for array, the
        edge-list layout it replaced."""
        seen = {"all": 0, "dropped": 0, "isolated": 0}

        def gen(rng: np.random.Generator):
            graph = random_eseller_graph(rng, max_nodes=30, max_edges=90)
            seeds = np.flatnonzero(rng.random(graph.num_nodes)
                                   < rng.choice([0.1, 0.5, 1.0]))
            if seeds.size == 0:
                seeds = rng.integers(0, graph.num_nodes, size=1)
            return graph, seeds, int(rng.integers(1, 4))

        def prop(case):
            graph, seeds, depth = case
            ids = np.arange(graph.num_nodes)
            layout = receptive_layout(graph, seeds, depth)
            rows = assert_level_ordered_prefix(
                graph, ids, seeds, depth, layout.graph, layout.rows,
                layout.rows_within, layout.edges_into)
            # Sorted seeds are the first rows, in their own order: row i
            # of a trimmed forward is the i-th loss row.
            assert np.array_equal(layout.seed_rows, np.arange(seeds.size))
            assert np.array_equal(layout.rows[:seeds.size], seeds)
            old = receptive_layout_oracle(graph.src, graph.dst,
                                          graph.edge_types, graph.num_nodes,
                                          seeds, depth)
            assert_same_layout(layout, old)
            seen["all"] += int(seeds.size == graph.num_nodes)
            seen["dropped"] += int(rows.size < graph.num_nodes)
            seen["isolated"] += int(layout.edges_into[0] == 0)

        forall(gen, prop, trials=TRIALS, seed=33, shrink=None,
               name="receptive_layout == level-ordered prefix")
        assert all(count >= 3 for count in seen.values()), seen

    def test_layout_is_the_level_ordered_prefix_of_the_whole_union(self):
        """``gather_batch`` of a labelled layout against the whole union
        of ``hops >= L`` egos (which holds every row a center reads) and
        the oracle's levels on it: ``L`` 1–3, repeated centers, isolated
        centers; the whole union itself is component by component."""
        seen = {"isolated": 0, "dropped": 0, "repeat": 0}

        def gen(rng: np.random.Generator):
            graph = random_eseller_graph(rng, max_nodes=30, max_edges=70)
            centers = rng.integers(0, graph.num_nodes,
                                   size=int(rng.integers(1, 13)))
            depth = int(rng.integers(1, 4))
            return graph, centers, depth + int(rng.integers(0, 2)), depth

        def prop(case):
            graph, centers, hops, depth = case
            source = id_batch(graph.num_nodes)
            egos = ego_subgraphs(graph, centers, hops)
            whole = build_disjoint_batch(egos, source)
            layout = receptive_layout(graph, centers, depth, labelled=True)
            cut = gather_batch(layout, centers, source)
            n = centers.size
            sizes = np.array([ego.num_nodes for ego in egos])
            assert np.array_equal(
                whole.center_rows, np.cumsum(sizes) - sizes
                + np.array([ego.center_local for ego in egos]))
            assert np.array_equal(
                whole.batch.series[:, 0],
                np.concatenate([ego.nodes for ego in egos]))
            assert whole.graph.num_edges == sum(
                ego.subgraph.num_edges for ego in egos)
            assert whole.rows_within.tolist() == [whole.graph.num_nodes] * 2
            assert whole.edges_into.tolist() == [whole.graph.num_edges]

            assert np.array_equal(cut.center_rows, np.arange(n))
            assert np.array_equal(cut.centers, centers)
            assert cut.rows_within[0] == n
            assert cut.graph.num_nodes == cut.batch.num_shops
            rows = assert_level_ordered_prefix(
                whole.graph, whole.batch.series[:, 0], whole.center_rows,
                depth, cut.graph, cut.batch.series[:, 0], cut.rows_within,
                cut.edges_into)
            # Labels count the rows each request reads.
            read = np.bincount(layout.labels, minlength=n)
            for i, center in enumerate(centers):
                alone = receptive_layout(graph, [center], depth)
                assert read[i] == alone.rows_within[-1]
            seen["isolated"] += int((read == 1).any())
            seen["dropped"] += int(rows.size < whole.graph.num_nodes)
            seen["repeat"] += int(np.unique(centers).size < n)

        forall(gen, prop, trials=TRIALS, seed=32, shrink=None,
               name="labelled layout == level-ordered prefix of the union")
        assert all(count >= 3 for count in seen.values()), seen


def assert_same_layout(layout, oracle, context=""):
    """Array for array: rows, relabelled edges, prefixes, seed rows."""
    for name in ("rows", "seed_rows", "rows_within", "edges_into"):
        got, want = getattr(layout, name), getattr(oracle, name)
        assert np.array_equal(got, want), (context, name, got, want)
    for name in ("src", "dst", "edge_types"):
        got, want = getattr(layout.graph, name), getattr(oracle.graph, name)
        assert np.array_equal(got, want), (context, name, got, want)
    assert layout.graph.num_nodes == oracle.graph.num_nodes, context


class TestReceptiveUnion:
    """The serving union from one labelled in-edge traversal equals the
    path it replaced — ``ego_subgraphs`` then the level-ordered layout of
    the stitched egos — array for array, whenever ``L <= hops``."""

    def test_labelled_layout_equals_the_ego_union_oracle(self):
        """Random graphs on every view (static, overlay with tombstones
        and grown shops, compacted), batches with repeated and
        self-looped centers, ``hops`` 0–3 and ``L`` 0..``hops``: rows,
        ``src`` / ``dst`` / types, ``rows_within``, ``edges_into``,
        ``center_rows``, labels and the gathered features."""
        seen = {"repeat": 0, "self_loop": 0, "deep": 0, "depth0": 0}

        def gen(rng: np.random.Generator):
            graph = random_eseller_graph(rng, max_nodes=30, max_edges=80)
            centers = rng.integers(0, graph.num_nodes,
                                   size=int(rng.integers(1, 10)))
            if rng.random() < 0.5:               # repeat a center
                centers = np.append(centers, centers[0])
            if rng.random() < 0.5:               # self-loop a center
                loop = int(centers[-1])
                graph = ESellerGraph(
                    graph.num_nodes, np.append(graph.src, loop),
                    np.append(graph.dst, loop),
                    np.append(graph.edge_types, 1))
            hops = int(rng.integers(0, 4))
            return graph, centers, hops, int(rng.integers(0, hops + 1))

        def prop(case):
            graph, centers, hops, depth = case
            source = id_batch(graph.num_nodes)
            for kind, view in views(graph):
                oracle = ego_union_oracle(ego_subgraphs(view, centers, hops),
                                          depth)
                layout = receptive_layout(view, centers, depth, labelled=True)
                assert_same_layout(layout, oracle, (kind, hops, depth))
                union = gather_batch(layout, centers, source)
                assert np.array_equal(union.center_rows, oracle.seed_rows)
                assert np.array_equal(union.batch.series[:, 0], oracle.rows)
                # Centers first, in request order, each under its own label.
                assert np.array_equal(union.center_rows,
                                      np.arange(centers.size)), kind
                assert np.array_equal(layout.labels[:centers.size],
                                      np.arange(centers.size)), kind
            loops = graph.src[graph.src == graph.dst]
            seen["repeat"] += int(np.unique(centers).size < centers.size)
            seen["self_loop"] += int(np.isin(centers, loops).any())
            seen["deep"] += int(depth >= 2)
            seen["depth0"] += int(depth == 0)

        forall(gen, prop, trials=TRIALS, seed=34, shrink=None,
               name="labelled layout == ego_subgraphs + union layout")
        assert all(count >= 3 for count in seen.values()), seen

    def test_rows_are_what_the_model_reads_of_a_deeper_graph(self):
        """``L > hops`` is where the two paths part: the ball truncates
        the reach, the traversal does not.  A chain ``0 -> 1 -> 2 -> 3``
        read from 3 with ``L = 3`` keeps every link."""
        chain = ESellerGraph(4, [0, 1, 2], [1, 2, 3], [0, 1, 2])
        layout = receptive_layout(chain, [3], 3, labelled=True)
        assert layout.rows.tolist() == [3, 2, 1, 0]
        assert layout.rows_within.tolist() == [1, 2, 3, 4]
        assert layout.edges_into.tolist() == [1, 2, 3]
        truncated = ego_union_oracle(ego_subgraphs(chain, [3], 1), 3)
        assert truncated.rows.tolist() == [3, 2]


class CountingGraph:
    """A graph seen through a counter: attributes pass through, every
    method call the extractor makes of it is recorded by name."""

    def __init__(self, graph):
        self._graph = graph
        self.calls = []

    def __getattr__(self, name):
        value = getattr(self._graph, name)
        if not callable(value):
            return value

        def counted(*args, **kwargs):
            self.calls.append(name)
            return value(*args, **kwargs)

        return counted


class TestOneTraversalPerBatch:
    """The two gates this extractor exists to hold — neither needs a clock."""

    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    def test_graph_queries_do_not_grow_with_the_batch(self, hops):
        """Two queries per hop (out, in) and one for assembly, whether the
        batch holds one center or thirty-two.  A per-center loop asks
        ``batch * (2 * hops + 1)`` times."""
        rng = np.random.default_rng(21)
        graph = random_eseller_graph(rng, max_nodes=60, max_edges=240,
                                     min_nodes=40)
        for kind, view in views(graph):
            counts = []
            for size in (1, 32):
                asked = CountingGraph(view)
                centers = rng.integers(0, graph.num_nodes, size=size)
                assert len(ego_subgraphs(asked, centers, hops)) == size
                counts.append(len(asked.calls))
            assert 1 <= counts[1] <= 2 * hops + 1, (kind, counts)
            assert counts[0] <= counts[1], (kind, counts)

    def test_one_ego_allocates_nothing_graph_sized(self):
        """With the CSR built, extracting a 2-hop ego from a 100k-node /
        300k-edge graph peaks under 64 KiB: no ``O(N)`` visited mask or
        relabel table, no ``O(E)`` edge mask (either is >= 100 KB here)
        — on the static graph and on an overlay of it."""
        rng = np.random.default_rng(22)
        n, e = 100_000, 300_000
        graph = ESellerGraph(n, rng.integers(0, n, e), rng.integers(0, n, e),
                             rng.integers(0, 3, e))
        graph.out_csr(), graph.in_csr()
        dyn = DynamicGraph(graph, compact_threshold=None)
        center = int(graph.src[0])
        for other in rng.integers(0, n, 100).tolist():
            dyn.add_edge(other, int(rng.integers(0, n)), 2)
        for other in rng.integers(0, n, 3).tolist():
            dyn.add_edge(center, other, 1)
        dyn.retire_edge(center, int(graph.dst[0]), int(graph.edge_types[0]))
        dyn.add_shop()
        for kind, view in (("static", graph), ("overlay", dyn)):
            ego_subgraphs(view, [center], 2)          # warm lazy imports
            tracemalloc.start()
            try:
                (ego,) = ego_subgraphs(view, [center], 2)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert ego.num_nodes > 3, kind
            assert peak < 64 * 1024, (kind, ego.num_nodes, peak)
        assert dyn.overlay_size == 103 and dyn.tombstones == 1


class TestHarness:
    def test_shrinking_reports_minimal_case(self):
        """The harness minimises a failing numeric case greedily."""

        def gen(rng):
            return int(rng.integers(50, 100))

        def prop(n):
            assert n < 40, f"n={n}"

        def shrink(n):
            if n > 40:
                yield n - 7
                yield n - 1

        try:
            forall(gen, prop, trials=5, seed=0, shrink=shrink, name="demo")
        except AssertionError as error:
            # greedy descent must land in [40, 47): one step below would pass
            reported = int(str(error).split("case: ")[1].split("\n")[0])
            assert 40 <= reported < 47
        else:
            raise AssertionError("property should have failed")
