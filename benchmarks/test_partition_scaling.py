"""Same-run check: BFS partitions beat the hash baseline on locality counts.

Deterministic counts, no timing.  For ``repro.partition`` at 1k and 5k
shops and ``k = 4 / 8``, the greedy-BFS partitioner cuts no more edges
than hash while respecting its balance cap, and the rows an ``L = 2``
forward over its blocks reads (``GraphPartition.rows_read``, summed over
blocks — a row two blocks read is embedded twice) do not exceed hash's.
The same holds for the ``K = 4`` owner blocks ``ParallelTrainer`` builds
over the train loss rows of the 1000-shop benchmark marketplace.
"""

from __future__ import annotations

import pytest

from repro.graph import generate_seller_graph
from repro.partition import partition_graph

from conftest import bench_dataset, record, seeded_rng

pytestmark = pytest.mark.slow

DEPTH = 2


def _counts(graph, k, rows=None):
    """Edge cut, balance and rows read per partitioner."""
    counts = {}
    for method in ("bfs", "hash"):
        parts = partition_graph(graph, k, method=method)
        counts[method] = {"edge_cut": parts.edge_cut(),
                          "balance": parts.balance(),
                          "rows_read": sum(parts.rows_read(DEPTH, rows))}
    return counts


def test_partition_quality():
    metrics, checks = {}, {}
    _, dataset = bench_dataset(1000, seed=17)
    cases = {f"{n}_shops_k{k}": (generate_seller_graph(n, seeded_rng(13)).graph, k, None)
             for n in (1000, 5000) for k in (4, 8)}
    cases["train_rows_k4"] = (dataset.graph, 4,
                              dataset.active_mask(dataset.train[0], "train"))
    for case, (graph, k, rows) in cases.items():
        counts = _counts(graph, k, rows)
        bfs, baseline = counts["bfs"], counts["hash"]
        for key in ("edge_cut", "rows_read"):
            metrics[f"{case}_{key}_bfs"] = bfs[key]
            metrics[f"{case}_{key}_hash"] = baseline[key]
        checks[f"{case}: bfs cut <= hash"] = bfs["edge_cut"] <= baseline["edge_cut"]
        checks[f"{case}: bfs balance <= 1.2"] = bfs["balance"] <= 1.2
        checks[f"{case}: bfs rows read <= hash"] = (
            bfs["rows_read"] <= baseline["rows_read"])
    record("partition_counts", metrics, checks)
