"""Same-run check: a patched compaction beats a cold rebuild.

A dense random graph (4000 nodes, 60k edges) is churned for 25 rounds;
each round ``DynamicGraph.compact()`` folds the overlay into a new base
whose CSR index is patched from the old one.  The same round is rebuilt
cold — ``ESellerGraph.from_edit_history`` over the round's edit history
plus a from-scratch ``out_csr()`` / ``in_csr()`` sort — and must produce
the same edge arrays.  Patching must be at least 1.2x faster.
"""

from __future__ import annotations

import time

import pytest

from repro.graph import ESellerGraph
from repro.streaming import DynamicGraph, EdgeAdded, EdgeRetired
from repro.streaming.events import edge_history

from conftest import record, seeded_rng

pytestmark = pytest.mark.slow

NODES = 4000
EDGES = 60_000
ROUNDS = 25
ADDITIONS = 80


def _indexed(graph: ESellerGraph) -> ESellerGraph:
    graph.out_csr()
    graph.in_csr()
    return graph


def test_patched_compaction_beats_cold_rebuild():
    rng = seeded_rng(41)
    graph = _indexed(ESellerGraph(NODES, rng.integers(0, NODES, size=EDGES),
                                  rng.integers(0, NODES, size=EDGES),
                                  rng.integers(0, 3, size=EDGES)))
    dyn = DynamicGraph(graph, compact_threshold=None)
    patched = cold = 0.0
    identical = True
    for _ in range(ROUNDS):
        pairs = rng.integers(0, NODES, size=(ADDITIONS, 2)).tolist()
        events = [EdgeAdded(month=0, src=s, dst=d) for s, d in pairs]
        events += [EdgeRetired(month=0, src=s, dst=d) for s, d in pairs[::2]]
        for event in events:
            dyn.apply(event)
        history = edge_history(events, base=graph)

        started = time.perf_counter()
        graph = _indexed(dyn.compact())
        patched += time.perf_counter() - started

        started = time.perf_counter()
        rebuilt = _indexed(ESellerGraph.from_edit_history(
            history.num_nodes, history.src, history.dst,
            history.edge_types, history.alive))
        cold += time.perf_counter() - started
        identical &= bool((rebuilt.src == graph.src).all()
                          and (rebuilt.dst == graph.dst).all())
    record("compaction", {
        "patched_ms_per_compaction": patched / ROUNDS * 1e3,
        "cold_ms_per_compaction": cold / ROUNDS * 1e3,
        "speedup": cold / patched,
    }, {
        "patched == cold edge arrays": identical,
        "speedup >= 1.2": cold / patched >= 1.2,
    })
