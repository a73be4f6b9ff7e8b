"""Serving at scale: the high-throughput gateway in front of the models.

The paper's deployed system (§VI, Fig 5) answers real-time GMV forecast
requests for newcoming e-sellers one ego-subgraph at a time.  This
package is the production-style layer that lets the same models take
heavy traffic:

* :class:`~repro.serving.gateway.ServingGateway` — the front door,
  and one path through it: ``submit`` admits a request (priority class
  + deadline) into the :class:`~repro.serving.batching.MicroBatcher`,
  ``pump`` / ``flush`` serve due batches (full, ``max_wait`` elapsed,
  or a deadline at risk; drained earliest-deadline-first within strict
  priority), and ``predict`` / ``predict_many`` run that loop to
  completion.  A drained batch is scored as one node-disjoint union of
  ego-subgraphs by the gateway's one model — one forward per
  micro-batch instead of one per request, numerically equal to the
  sequential path — and a registry publish swaps that model's weights
  whole (``gateway.model`` / ``gateway.model_version``).
* :class:`~repro.serving.cache.SubgraphCache` /
  :class:`~repro.serving.cache.ResultCache` — LRU planes for extracted
  ego-subgraphs and finished forecasts (per model version), invalidated
  on registry publishes and graph mutations — wholesale for opaque
  changes, or delta-aware under streaming: attach a
  :class:`~repro.streaming.dynamic_graph.DynamicGraph` via
  :meth:`~repro.serving.gateway.ServingGateway.attach_stream` and each
  mutation evicts only the entries whose node sets it touched.  Attach
  the live :class:`~repro.streaming.features.StreamingFeatureStore` too
  and results also expire on **data freshness**: forecasts whose egos
  received fresher sales ticks are stale-tagged or evicted per
  ``GatewayConfig(max_staleness_months=...)``.
* :class:`~repro.serving.metrics.MetricsRegistry` — QPS, batch
  occupancy, cache hit rate, p50/p95/p99 latency.
* :class:`~repro.serving.loadgen.LoadGenerator` / :func:`~repro.serving.loadgen.run_load`
  — deterministic traffic patterns (uniform / zipf / repeating) and a
  timed benchmark harness.
* **Admission** (:mod:`repro.serving.admission`) — every request
  carries a deadline and a priority class; a full bounded queue sheds
  preemptively (``GatewayResponse.shed`` / ``retry_after_s``) and an
  expired budget is shed, never served late.
  ``GatewayConfig(admission=True)`` bounds the queue at
  ``max_queue_depth`` and stamps ``default_deadline_s`` on requests
  without a budget; off, the queue is unbounded and they never expire.
  :meth:`~repro.serving.loadgen.LoadGenerator.generate_timed` /
  :func:`~repro.serving.loadgen.replay_timed` +
  :class:`~repro.serving.loadgen.ServiceTimeModel` simulate
  adversarial traffic (flash-sale spike, hot-key shop, diurnal wave,
  slow-drain server) deterministically under a ``FakeClock``.

Quickstart::

    from repro.serving import GatewayConfig, ServingGateway

    gateway = ServingGateway(
        model_factory=lambda: gaia_factory(dataset),
        dataset=dataset,
        registry=pipeline.registry,                 # hot swaps on publish
        config=GatewayConfig(max_batch_size=32),
    )
    responses = gateway.predict_many(shop_indices)  # == sequential path
    print(gateway.metrics_report())
"""

from .admission import (
    AdmissionController,
    AdmissionDecision,
    admission_report,
)
from .batching import (
    PRIORITIES,
    DisjointBatch,
    MicroBatcher,
    PendingRequest,
    build_disjoint_batch,
    gather_batch,
    priority_rank,
)
from .cache import CachedResult, LRUCache, ResultCache, SubgraphCache
from .gateway import GatewayConfig, GatewayResponse, ServingGateway
from .loadgen import (
    LoadGenerator,
    LoadReport,
    ServiceTimeModel,
    TimedRequest,
    replay_timed,
    run_load,
)
from .metrics import MetricsRegistry, RollingWindow

__all__ = [
    "ServingGateway",
    "GatewayConfig",
    "GatewayResponse",
    "MicroBatcher",
    "PendingRequest",
    "PRIORITIES",
    "priority_rank",
    "DisjointBatch",
    "build_disjoint_batch",
    "gather_batch",
    "AdmissionController",
    "AdmissionDecision",
    "admission_report",
    "LRUCache",
    "SubgraphCache",
    "ResultCache",
    "CachedResult",
    "MetricsRegistry",
    "RollingWindow",
    "LoadGenerator",
    "LoadReport",
    "TimedRequest",
    "ServiceTimeModel",
    "replay_timed",
    "run_load",
]
