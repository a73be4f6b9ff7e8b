"""The serving gateway: micro-batching + caching in front of one model.

:class:`ServingGateway` is the production-style front door for real-time
GMV forecasts (paper §VI, Fig 5, scaled up).  One request travels:

1. **result cache** — ``(shop, model_version)`` hit returns a
   finished forecast without touching a model;
2. **micro-batcher** — misses park until a batch is due: ``max_batch_size``
   requests accumulated, the oldest waited ``max_wait`` seconds, or a
   parked deadline is at risk;
3. **node-disjoint forward** — the drained batch's misses, coalesced by
   shop, are scored with a single forward of the gateway's one model.
   The model declares how far upstream of a center it reads
   (``Module.receptive_depth``); one labelled in-edge traversal of the
   centers (``graph.sampling.receptive_layout``) lays out exactly those
   rows and edges, and the forward computes each layer on its receptive
   prefix (a model that declares no depth gets whole ``hops`` egos,
   memoised per graph epoch).  Per-center outputs equal the sequential
   whole-ego path (``OnlineModelServer``) to 1e-12.  Cache tags,
   staleness, servability and ``subgraph_nodes`` follow the rows read.

The gateway owns one model (``gateway.model``) at one
``gateway.model_version`` and subscribes to the
:class:`~repro.deploy.model_server.ModelRegistry`: a publish loads the
new weights into it whole (a load that cannot complete changes nothing)
and purges result cache entries from superseded versions.
``notify_graph_changed`` flushes both cache planes for opaque graph
mutations (new shops / edges with unknown blast radius).

Streaming: :meth:`ServingGateway.attach_stream` plugs the gateway into
a live :class:`~repro.streaming.dynamic_graph.DynamicGraph` — requests
are then served from the delta overlay (no CSR rebuilds), and every
mutation's touched frontier flows into
:meth:`ServingGateway.notify_graph_delta`, which evicts **only** the
cached subgraphs/results whose node sets intersect it instead of
flushing both planes.  Under churn this keeps hit rates high: entries
far from the mutation (or only in a part of the ego no layer reads)
keep serving.

Data freshness: pass the live
:class:`~repro.streaming.features.StreamingFeatureStore` to
:meth:`attach_stream` as well and the result cache expires on **sales
data**, not only topology.  Every cached forecast is stamped with the
store's event-time frontier and tick sequence at compute time; the
gateway subscribes to the store's :class:`~repro.streaming.events.SalesTick`
frontier and, governed by ``GatewayConfig(max_staleness_months=...)``,
evicts forecasts whose data has fallen behind the frontier by more than
the budget while serving younger-but-outdated entries with an explicit
staleness tag (``GatewayResponse.stale`` /
``GatewayResponse.staleness_months``).  All traffic is accounted in a
:class:`~repro.serving.metrics.MetricsRegistry`.

One serving path, whoever calls (bulk ``predict_many``, an open-loop
worker):
:meth:`ServingGateway.submit` is *pure admission* (see
:mod:`repro.serving.admission`) — the request gets a **priority class**
and an absolute **deadline** (``submit(shop, priority="high",
deadline_s=0.02)``) and is parked, preempts the worst parked
lower-priority request at a full bounded queue, or is shed itself (it
still resolves, with ``GatewayResponse.shed=True`` and a
pressure-scaled ``retry_after_s`` hint).  :meth:`ServingGateway.pump` /
``poll`` / ``flush`` serve: batches drain earliest-deadline-first
within strict priority, and a request whose deadline passed while
parked, or whose batch lands past the budget, is shed as ``"expired"``,
never served late.  ``predict`` / ``predict_many`` run that loop to
completion.  Every verdict lands in a deterministic decision log
(``gateway.admission.decision_log()``) and in :meth:`metrics_report`
counters an SLO can be declared over.  ``GatewayConfig(admission=True)``
selects two values, not a second path: it bounds the queue at
``max_queue_depth`` and stamps ``default_deadline_s`` on requests that
bring no budget; off (default), the queue is unbounded and such
requests never expire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..data.dataset import ForecastDataset, InstanceBatch
from ..deploy.model_server import ModelRegistry, ModelVersion
from ..deploy.serving import PredictionResponse
from ..graph.sampling import ego_subgraphs, receptive_layout
from ..nn import engine
from ..nn.module import Module
from ..obs import clock as obs_clock
from ..obs import tracing as obs_tracing
from ..obs.health import (
    HealthServer,
    gateway_probe,
    registry_probe,
    streaming_probe,
)
from .admission import AdmissionController
from .batching import (
    PRIORITIES,
    MicroBatcher,
    PendingRequest,
    build_disjoint_batch,
    gather_batch,
    priority_rank,
)
from .cache import ResultCache, SubgraphCache
from .metrics import MetricsRegistry

__all__ = ["GatewayConfig", "GatewayResponse", "ServingGateway"]


@dataclass
class GatewayConfig:
    """Tuning knobs for one :class:`ServingGateway`."""

    #: The ego radius for models that declare no ``receptive_depth``.
    hops: int = 2
    max_batch_size: int = 32
    max_wait: float = 0.005
    subgraph_cache_size: int = 2048
    result_cache_size: int = 8192
    #: Data-freshness budget for cached forecasts (needs a feature
    #: store attached via ``attach_stream(dyn, store=...)``).  ``None``
    #: disables freshness accounting (topology-only expiry, the
    #: pre-event-time behaviour).  With a budget ``k``, a cached result
    #: whose compute-time data frontier trails the store's by more than
    #: ``k`` months is evicted; one merely *outdated* (fresher ticks
    #: landed in a row it read, but within budget) is served with a
    #: staleness tag.  ``0`` = evict the moment the frontier advances
    #: past the entry's data month.
    max_staleness_months: Optional[int] = None
    #: Selects two values, never a code path: ``True`` bounds the queue
    #: at ``max_queue_depth`` and stamps ``default_deadline_s`` on
    #: requests without their own budget; ``False`` (default) leaves the
    #: queue unbounded and such requests without a deadline.
    admission: bool = False
    #: Deadline budget (seconds) stamped, under ``admission=True``, on
    #: requests that do not bring their own ``deadline_s``.  Absolute
    #: deadline = admission time + budget; a request past it is shed as
    #: ``"expired"``, never served late.
    default_deadline_s: float = 0.05
    #: Bound on parked requests under ``admission=True``.  At the bound,
    #: an arrival preempts the worst parked strictly-lower-priority
    #: request, or is itself shed (``GatewayResponse.shed``) when nothing
    #: lower is parked.  Must be at least ``max_batch_size``.
    max_queue_depth: int = 256

    def validate(self) -> None:
        """Reject inconsistent settings early."""
        if self.hops < 0:
            raise ValueError(f"hops must be non-negative, got {self.hops}")
        if self.max_batch_size <= 0:
            raise ValueError(
                f"max_batch_size must be positive, got {self.max_batch_size}"
            )
        if self.max_staleness_months is not None \
                and self.max_staleness_months < 0:
            raise ValueError(
                f"max_staleness_months must be non-negative, "
                f"got {self.max_staleness_months}"
            )
        if self.default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be positive, "
                f"got {self.default_deadline_s}"
            )
        if self.admission and self.max_queue_depth < self.max_batch_size:
            raise ValueError(
                f"max_queue_depth {self.max_queue_depth} below "
                f"max_batch_size {self.max_batch_size}: the bounded queue "
                "could never fill one batch"
            )


@dataclass
class GatewayResponse(PredictionResponse):
    """A :class:`PredictionResponse` plus gateway-side provenance.

    ``subgraph_nodes`` counts the rows the forecast's forward read.
    ``stale`` marks a cached forecast served after fresher sales data
    landed in one of those rows (allowed while within the
    ``max_staleness_months`` budget); ``staleness_months`` is how many
    event-time months its data frontier trails the store's.

    ``shed`` marks a request admission refused (queue full,
    preempted by a higher class, or deadline expired): the forecast is
    an all-zero read-only placeholder and ``retry_after_s`` is the
    client back-off hint.  ``priority`` echoes the request's class.
    """

    cached: bool = False
    model_version: int = 0
    batch_size: int = 1
    stale: bool = False
    staleness_months: int = 0
    shed: bool = False
    retry_after_s: float = 0.0
    priority: str = "normal"


class ServingGateway:
    """High-throughput forecast serving over the existing model stack.

    Parameters
    ----------
    model_factory:
        Zero-argument callable building a registry-compatible model.
        Called once; the instance is :attr:`model`.
    dataset:
        The serving snapshot; forecasts run against ``dataset.test``
        (override via ``source_batch``) and ``dataset.graph``.
    registry:
        Optional model registry.  When given, the model loads its latest
        weights immediately and every later ``publish`` hot-swaps them;
        :attr:`model_version` is the version now serving (0 = the
        factory's own weights).
    """

    def __init__(
        self,
        model_factory: Callable[[], Module],
        dataset: ForecastDataset,
        registry: Optional[ModelRegistry] = None,
        config: Optional[GatewayConfig] = None,
        source_batch: Optional[InstanceBatch] = None,
        clock=None,
    ) -> None:
        self.config = config or GatewayConfig()
        self.config.validate()
        self.dataset = dataset
        self.source_batch = source_batch if source_batch is not None else dataset.test
        self.registry = registry
        # The injectable observability clock by default: batch deadlines,
        # latency percentiles and rolling QPS all move under a FakeClock.
        clock = clock or obs_clock.now
        self._clock = clock
        self.model = model_factory()
        self.model_version = 0
        if registry is not None and registry.num_versions:
            self.model_version = registry.load_into(self.model).version
        self.batcher = MicroBatcher(
            max_batch_size=self.config.max_batch_size,
            max_wait=self.config.max_wait,
            clock=clock,
        )
        # The only read of config.admission that decides anything: it
        # picks the queue bound and the default budget, not a code path.
        bounded = self.config.admission
        self.admission = AdmissionController(
            max_queue_depth=(self.config.max_queue_depth if bounded
                             else math.inf),
            default_deadline_s=(self.config.default_deadline_s if bounded
                                else math.inf),
        )
        self.subgraph_cache = SubgraphCache(self.config.subgraph_cache_size)
        self.result_cache = ResultCache(self.config.result_cache_size)
        # 4096 samples per rolling distribution (latency, batch size, QPS).
        self.metrics = MetricsRegistry(window=4096, clock=clock)
        self._stream_graph = None
        self._data_store = None
        self._data_frontier = -1
        self._subscribed = registry is not None
        if registry is not None:
            registry.subscribe(self._on_publish)
        # The health plane: gateway (and registry, when present) probes
        # are registered at construction; attach_stream adds streaming.
        self.health_server = HealthServer(clock=clock)
        self.health_server.register("gateway", gateway_probe(self))
        if registry is not None:
            self.health_server.register("registry", registry_probe(registry))

    @property
    def graph(self):
        """The graph requests are served from.

        The dataset's static snapshot by default; a live
        :class:`~repro.streaming.dynamic_graph.DynamicGraph` once
        :meth:`attach_stream` ran.
        """
        if self._stream_graph is not None:
            return self._stream_graph
        return self.dataset.graph

    def close(self) -> None:
        """Detach from the registry/stream and drain parked requests.

        A discarded gateway would otherwise stay referenced by the
        registry's (and dynamic graph's) subscriber lists and keep
        reacting to every later publish or mutation.  Idempotent.
        """
        self.flush()
        if self._subscribed and self.registry is not None:
            self.registry.unsubscribe(self._on_publish)
            self._subscribed = False
        if self._stream_graph is not None:
            self._stream_graph.unsubscribe(self.notify_graph_delta)
            self._stream_graph = None
        if self._data_store is not None:
            self._data_store.unsubscribe(self.notify_data_delta)
            self._data_store = None
        # The probe holds the store: a closed gateway must neither keep
        # it alive nor keep reporting on a stream it no longer follows.
        self.health_server.unregister("streaming")

    # ------------------------------------------------------------------
    # invalidation hooks
    # ------------------------------------------------------------------
    def _on_publish(self, version: ModelVersion) -> None:
        """Registry published: swap the weights whole, purge stale results.

        ``load_state_dict`` validates before it assigns, so a version
        this model cannot hold raises (out of ``registry.publish``) with
        the weights, the version and the cache exactly as they were.
        """
        self.model.load_state_dict(version.state)
        self.model_version = version.version
        self.result_cache.invalidate_versions_other_than(version.version)
        self.metrics.inc("model_swaps")

    def notify_graph_changed(self) -> None:
        """Opaque graph mutation: drop every memoised subgraph and result.

        The conservative path for mutations with unknown blast radius
        (e.g. the whole dataset snapshot was replaced).  Event-sourced
        mutations should flow through :meth:`notify_graph_delta`.
        """
        self.subgraph_cache.invalidate_graph()
        self.result_cache.clear()
        self.metrics.inc("graph_invalidations")

    def notify_graph_delta(self, touched) -> None:
        """Delta-aware invalidation for an event-sourced graph mutation.

        ``touched`` is the mutation's node frontier (edge endpoints /
        arrived shops).  Only cached entries whose memoised node sets
        intersect it can have changed — what a forward reads (or a
        k-hop ball) changes only through an edge into a node it holds —
        so everything else survives, keeping hit rates high under churn.
        """
        touched = np.asarray(touched, dtype=np.int64)
        if touched.size == 0:
            return
        with obs_tracing.span("gateway.delta_invalidation"):
            evicted_subgraphs = self.subgraph_cache.invalidate_nodes(touched)
            evicted_results = self.result_cache.invalidate_nodes(touched)
        self.metrics.inc("graph_delta_invalidations")
        self.metrics.inc("delta_evicted_subgraphs", evicted_subgraphs)
        self.metrics.inc("delta_evicted_results", evicted_results)

    def attach_stream(self, dynamic_graph, store=None,
                      keep_caches: bool = False) -> None:
        """Serve from a live :class:`~repro.streaming.dynamic_graph.DynamicGraph`.

        Subgraph extraction switches to the delta overlay (updates are
        visible immediately, no CSR rebuilds) and every mutation's
        touched frontier flows into :meth:`notify_graph_delta`.  The
        caches are flushed once at attach time — entries memoised from
        the static snapshot have unknown provenance relative to the
        stream — and survive mutations selectively from then on.

        ``store`` (a live
        :class:`~repro.streaming.features.StreamingFeatureStore` fed by
        the same event stream) additionally subscribes the gateway to
        the :class:`~repro.streaming.events.SalesTick` frontier: cached
        forecasts are stamped with the store's event-time provenance and
        expire on data freshness per ``config.max_staleness_months``
        (see :meth:`notify_data_delta`).

        Scoring needs a feature row per subgraph node, so shops grown
        *beyond* the serving snapshot (``dynamic_graph.add_shop`` past
        ``source_batch.num_shops``) cannot be served — nor linked into
        served neighborhoods — until ``source_batch`` is refreshed.
        Pre-allocated arrival slots (the simulator's reveal model) are
        fully supported.

        ``keep_caches`` controls the attach-time flush.  The default
        (``False``) cold-starts the caches — correct whenever cached
        entries might have been memoised against different state, which
        includes **every crash-recovery attach**: a recovered
        ``DynamicGraph``/store pair is state-identical to the crashed
        one, but a fresh gateway has nothing to keep and a surviving
        gateway's entries predate the recovery replay.  Pass ``True``
        only to *re*-attach the exact stream this gateway was already
        serving (e.g. swapping in the same graph/store objects after a
        checkpoint write): the warm entries are provably still valid
        because delta invalidation tracked every mutation that produced
        them, and freshness stamps carry over unchanged.
        """
        if self._stream_graph is not None:
            self._stream_graph.unsubscribe(self.notify_graph_delta)
        if self._data_store is not None:
            self._data_store.unsubscribe(self.notify_data_delta)
            self._data_store = None
        self._stream_graph = dynamic_graph
        dynamic_graph.subscribe(self.notify_graph_delta)
        self.health_server.unregister("streaming")
        if store is not None:
            self._data_store = store
            self._data_frontier = int(store.frontier)
            store.subscribe(self.notify_data_delta)
            self.health_server.register(
                "streaming",
                streaming_probe(
                    store,
                    max_lag_months=self.config.max_staleness_months,
                ),
            )
        if not keep_caches:
            self.notify_graph_changed()

    def notify_data_delta(self, shops, frontier: int) -> None:
        """Fresh sales data landed for ``shops``; frontier is the store's.

        Advances the gateway's view of the event-time frontier and — with
        a ``max_staleness_months`` budget configured — expires every
        cached forecast whose compute-time data month now trails the
        frontier beyond it.  The expiry sweep runs only when the
        frontier actually advanced: in-window late ticks (the common
        out-of-order case) cannot move the expiry cutoff, and entries
        are stamped with the frontier at compute time, so a sweep
        without an advance can never evict.  Entries inside the budget
        stay put; the per-entry *outdatedness* check (fresher ticks
        in a row it read) happens lazily at lookup time, where the
        staleness tag is attached.
        """
        if frontier <= self._data_frontier:
            return
        self._data_frontier = int(frontier)
        budget = self.config.max_staleness_months
        if budget is None:
            return
        with obs_tracing.span("gateway.freshness_invalidation"):
            evicted = self.result_cache.expire_older_than(
                self._data_frontier - budget
            )
        if evicted:
            self.metrics.inc("freshness_evictions", float(evicted))

    # ------------------------------------------------------------------
    # request intake
    # ------------------------------------------------------------------
    def submit(self, shop_index: int, priority: Optional[str] = None,
               deadline_s: Optional[float] = None) -> PendingRequest:
        """Admit one request; serving happens in :meth:`pump` / :meth:`flush`.

        ``priority`` (one of :data:`~repro.serving.batching.PRIORITIES`,
        default ``"normal"``) and ``deadline_s`` (budget in seconds;
        default ``config.default_deadline_s`` under ``admission=True``,
        no deadline otherwise) drive scheduling.  Submit is *pure
        admission* — park, shed or preempt — so a burst genuinely
        builds queue depth against the bound instead of being drained
        inline; the request may come back already resolved with a shed
        response (``request.result().shed``) when a full bounded queue
        refused it.
        """
        shop_index = int(shop_index)
        if not 0 <= shop_index < self.graph.num_nodes:
            raise IndexError(
                f"shop {shop_index} out of range for "
                f"{self.graph.num_nodes} shops"
            )
        if shop_index >= self.source_batch.num_shops:
            # A streamed-in shop can outgrow the serving snapshot: the
            # graph knows it, but no feature row exists to score it.
            # Reject here so one such request cannot poison the whole
            # micro-batch at flush time.
            raise IndexError(
                f"shop {shop_index} has no feature row in the serving "
                f"snapshot ({self.source_batch.num_shops} shops); "
                "refresh source_batch before serving shops added beyond it"
            )
        with obs_tracing.span("gateway.admission"):
            return self._admit(shop_index, priority, deadline_s)

    def _admit(self, shop_index: int, priority: Optional[str],
               deadline_s: Optional[float]) -> PendingRequest:
        """Queue-bound admission verdict for one arriving request.

        A refused request comes back already resolved with a shed
        response; a preempted victim is resolved the same way from
        inside this call.
        """
        priority = priority or "normal"
        priority_rank(priority)          # validate the class name early
        controller = self.admission
        budget = (controller.default_deadline_s
                  if deadline_s is None else float(deadline_s))
        if not budget > 0:               # NaN compares false: rejected too
            raise ValueError(f"deadline_s must be positive, got {budget}")
        # Counted only once it is a request the verdicts below account
        # for: requests_total == admitted + shed at the door.
        self.metrics.record_request()
        now = self._clock()
        deadline = now + budget
        depth = len(self.batcher)
        if depth >= controller.max_queue_depth:
            victim = self.batcher.shed_candidate(priority)
            retry_after = controller.retry_after(depth)
            if victim is None:
                # Nothing parked is below the newcomer: shed it.
                request = PendingRequest(
                    shop_index=shop_index, enqueued_at=now,
                    priority=priority, deadline=deadline,
                )
                self._shed(request, retry_after)
                controller.record(
                    "shed_incoming", priority, depth, now,
                    reason="queue_full", retry_after_s=retry_after,
                )
                return request
            if self.batcher.remove(victim):
                # Preempt the worst lower-class parked request to make
                # room: the high class is never starved by a full queue
                # of lower traffic.
                self._shed(victim, retry_after)
                controller.record(
                    "shed_parked", priority, depth, now, reason="preempted",
                    victim=victim, lower_priority_available=True,
                    retry_after_s=retry_after,
                )
            # else: the victim raced into a drain — the queue just made
            # room on its own, admit without shedding anyone.
            depth = len(self.batcher)
        request, _ = self.batcher.submit(
            shop_index, priority=priority, deadline=deadline
        )
        self.metrics.inc("requests_admitted")
        controller.record("admit", priority, depth + 1, now)
        return request

    def _shed(self, request: PendingRequest,
              retry_after_s: float = 0.0) -> None:
        """Resolve one request with a shed response (never an exception).

        The forecast is an all-zero read-only placeholder: overload is
        an expected outcome, so callers branch on ``response.shed``
        instead of growing exception paths.
        """
        forecast = np.zeros(self.source_batch.horizon, dtype=np.float64)
        forecast.setflags(write=False)
        self.metrics.inc("requests_shed")
        self.metrics.inc(f"requests_shed_{request.priority}")
        request.resolve(GatewayResponse(
            shop_index=request.shop_index,
            forecast=forecast,
            subgraph_nodes=0,
            latency_seconds=self._clock() - request.enqueued_at,
            shed=True,
            retry_after_s=float(retry_after_s),
            priority=request.priority,
        ))

    def _expire(self, request: PendingRequest, now: float) -> None:
        """Shed a request whose deadline passed: never served late."""
        self._shed(request)
        self.metrics.inc("requests_expired")
        self.admission.record(
            "expire", request.priority, len(self.batcher), now,
            reason="expired", victim=request,
        )

    def pump(self) -> bool:
        """Serve at most one due micro-batch (the serving worker's step).

        Drains one EDF-scheduled batch when a full batch is parked, the
        occupancy timer fired, or a parked deadline is at risk.  Load
        replayers (:func:`~repro.serving.loadgen.replay_timed`) call
        this between arrivals so service capacity is finite — while one
        batch's simulated service time elapses, later arrivals queue
        instead of being drained inline.  Returns ``False`` when nothing
        was due, so pump loops terminate the moment the queue is calm.
        """
        if not self.batcher.due():
            return False
        self._serve_next()
        return True

    def poll(self) -> None:
        """Serve whatever is due: :meth:`pump` until the queue is calm."""
        while self.pump():
            pass

    def flush(self) -> None:
        """Serve every parked request, one micro-batch at a time."""
        while len(self.batcher):
            self._serve_next()

    def _serve_next(self) -> None:
        """Drain and serve one batch — the step pump and flush share.

        The drained batch is swept for expired deadlines first (those
        requests are shed, not served late) and the measured service
        time feeds the batcher's EWMA — the risk estimate its
        early-flush policy trades occupancy against.
        """
        now = self._clock()
        batch: List[PendingRequest] = []
        for request in self.batcher.drain():
            if request.deadline < now:
                self._expire(request, now)
            else:
                batch.append(request)
        if batch:
            with obs_tracing.span("gateway.serve_batch"):
                self._serve(batch)
            self.batcher.observe_service(self._clock() - now)

    def predict(self, shop_index: int, priority: Optional[str] = None,
                deadline_s: Optional[float] = None) -> GatewayResponse:
        """Score one shop synchronously (submit + immediate flush)."""
        with obs_tracing.span("gateway.request"):
            request = self.submit(shop_index, priority=priority,
                                  deadline_s=deadline_s)
            if not request.done:
                self.flush()
            return request.result()

    def predict_many(self, shop_indices: Sequence[int],
                     priority: Optional[str] = None,
                     deadline_s: Optional[float] = None) -> List[GatewayResponse]:
        """Serve a request stream, coalescing into micro-batches.

        The canonical serving loop run to completion: submit, pump
        after each arrival (so a batch is served the moment it is full
        or due and a bulk call never parks more than ``max_batch_size``
        requests), flush at the end.  Responses come back in request
        order; numerically they match the sequential
        :meth:`~repro.deploy.serving.OnlineModelServer.predict_many`
        path exactly.  ``priority``/``deadline_s`` apply to every
        request in the stream.
        """
        with obs_tracing.span("gateway.request"):
            requests = []
            for shop in np.asarray(shop_indices):
                requests.append(self.submit(int(shop), priority=priority,
                                            deadline_s=deadline_s))
                self.pump()
            self.flush()
            return [r.result() for r in requests]

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def _resolve(self, request: PendingRequest, forecast: np.ndarray,
                 subgraph_nodes: int, cached: bool,
                 batch_size: int, stale: bool = False,
                 staleness_months: int = 0) -> None:
        now = self._clock()
        if now > request.deadline:
            # The batch landed past this request's budget: an answer
            # the client stopped waiting for is not service.  Count it
            # shed, never served late (the admission invariant the
            # property suite pins).
            self._expire(request, now)
            return
        latency = now - request.enqueued_at
        self.metrics.observe("latency_seconds", latency)
        request.resolve(GatewayResponse(
            shop_index=request.shop_index,
            forecast=forecast,
            subgraph_nodes=int(subgraph_nodes),
            latency_seconds=latency,
            cached=cached,
            model_version=self.model_version,
            batch_size=batch_size,
            stale=stale,
            staleness_months=int(staleness_months),
            priority=request.priority,
        ))

    def _check_freshness(self, shop: int, version: int, cached):
        """Event-time verdict on a result-cache hit.

        Returns ``None`` when the entry outlived the staleness budget
        (it is evicted and the lookup falls through to a recompute), or
        ``(stale, staleness_months)`` — ``stale`` marks an in-budget
        entry a read row of which got fresher ticks since compute time.
        Without an attached store or budget everything is fresh.
        """
        store = self._data_store
        budget = self.config.max_staleness_months
        if store is None or budget is None or cached.tick_seq < 0:
            return False, 0
        age = max(int(store.frontier) - cached.data_month, 0)
        if age > budget:
            self.result_cache.discard(shop, version)
            self.metrics.inc("freshness_evictions")
            return None
        nodes = cached.nodes
        if nodes is None:
            outdated = True
        else:
            known = nodes[nodes < store.last_tick_seq.size]
            outdated = known.size > 0 and \
                int(store.last_tick_seq[known].max()) > cached.tick_seq
        if outdated:
            self.metrics.inc("stale_results_served")
            return True, age
        return False, 0

    def _serve(self, requests: List[PendingRequest]) -> None:
        """Score one drained, non-empty micro-batch."""
        tracer = obs_tracing.get_tracer()
        if tracer.enabled:
            # Queue wait is not call-shaped: it ended the moment this
            # batch drained.  Attach it retroactively per request, from
            # the same clock domain the batcher stamped enqueued_at in.
            drained_at = self._clock()
            for request in requests:
                tracer.record("gateway.queue_wait", request.enqueued_at,
                              drained_at, shop=request.shop_index)
        version = self.model_version
        # Result-cache hits answer immediately; misses coalesce by shop
        # into the batch's one forward.
        by_shop: Dict[int, List[PendingRequest]] = {}
        for request in requests:
            cached = self.result_cache.get(request.shop_index, version)
            if cached is not None:
                verdict = self._check_freshness(
                    request.shop_index, version, cached
                )
                if verdict is None:
                    cached = None      # expired at lookup: recompute
            if cached is not None:
                stale, staleness = verdict
                self.metrics.inc("cache_hits")
                self._resolve(request, cached.forecast, cached.subgraph_nodes,
                              cached=True, batch_size=len(requests),
                              stale=stale, staleness_months=staleness)
                continue
            self.metrics.inc("cache_misses")
            by_shop.setdefault(request.shop_index, []).append(request)
        if not by_shop:
            return
        try:
            self._forward_batch(by_shop, len(requests))
        except Exception as error:
            # Contain a raising forward to its batch: these requests
            # are already drained, so they must resolve here (result()
            # re-raises ``error``), and the next batch is still served.
            unresolved = [r for reqs in by_shop.values() for r in reqs
                          if not r.done]
            for request in unresolved:
                request.fail(error)
            self.metrics.inc("requests_failed", float(len(unresolved)))

    def _extract(self, shops: List[int], depth: Optional[int]):
        """What a forward over ``shops`` reads: ``(extracted, reads)``.

        For an integer ``depth`` the labelled
        :func:`~repro.graph.sampling.receptive_layout` of the shops (one
        traversal, one label per shop); for ``None`` their whole egos,
        via the LRU.  ``reads[shop]`` are the host rows its forecast reads.
        """
        if depth is not None:
            layout = receptive_layout(self.graph, shops, depth, labelled=True)
            grouped = layout.rows[np.argsort(layout.labels, kind="stable")]
            ends = [0] + np.bincount(layout.labels).cumsum().tolist()
            return layout, {shop: grouped[ends[i]:ends[i + 1]]
                            for i, shop in enumerate(shops)}
        hops = self.config.hops
        egos = {shop: self.subgraph_cache.get(shop, hops) for shop in shops}
        missing = [shop for shop, ego in egos.items() if ego is None]
        self.metrics.inc("subgraph_cache_misses", len(missing))
        self.metrics.inc("subgraph_cache_hits", len(shops) - len(missing))
        for ego in ego_subgraphs(self.graph, missing, hops):
            self.subgraph_cache.put(ego.center, hops, ego)
            egos[ego.center] = ego
        return egos, {shop: egos[shop].nodes for shop in shops}

    def _fail_unservable(self, by_shop, reads) -> List[int]:
        """Fail requests whose forward reads beyond the feature snapshot.

        A streamed-in shop has graph presence but no feature row; a
        forward that reads it (not one the center merely writes to)
        would crash the whole batch.  Those requests fail individually
        (:meth:`PendingRequest.result` re-raises) and the rest of the
        batch proceeds.  Returns the servable shops.
        """
        limit = self.source_batch.num_shops
        if np.concatenate(list(reads.values())).max() < limit:
            return list(by_shop)             # the common case: one test
        servable: List[int] = []
        for shop, requests in by_shop.items():
            widest = int(reads[shop].max())
            if widest < limit:
                servable.append(shop)
                continue
            error = IndexError(
                f"the forecast of shop {shop} reads node {widest}, beyond the "
                f"serving snapshot's {limit} feature rows; refresh "
                "source_batch before linking streamed-in shops into it")
            for request in requests:
                request.fail(error)
            self.metrics.inc("requests_failed", float(len(requests)))
        return servable

    def _forward_batch(self, by_shop: Dict[int, List[PendingRequest]],
                       batch_size: int) -> None:
        """One node-disjoint forward for a drained batch's cache misses."""
        # The model says how far upstream of a center it reads; the
        # batch is laid out for exactly that, and a model that says
        # nothing gets the whole egos and no ``trim``.
        depth = self.model.receptive_depth
        with obs_tracing.span("gateway.extract"):
            extracted, reads = self._extract(list(by_shop), depth)
        shops = self._fail_unservable(by_shop, reads)
        if not shops:
            return
        if len(shops) < len(by_shop):    # rare: lay the rest out afresh
            with obs_tracing.span("gateway.extract"):
                extracted = self._extract(shops, depth)[0]
        with obs_tracing.span("gateway.batch_assembly"):
            union = (build_disjoint_batch([extracted[s] for s in shops],
                                          self.source_batch)
                     if depth is None
                     else gather_batch(extracted, shops, self.source_batch))
        trim = {} if depth is None else {
            "trim": (union.rows_within, union.edges_into)}
        self.model.eval()
        # Inference mode = no autograd metadata + the engine's
        # optimized kernel set (GEMM convolutions, reduceat
        # scatter-adds, in-place masked softmax) for the stitched
        # block-diagonal forward.
        with obs_tracing.span("gateway.forward"):
            with engine.inference_mode():
                scaled = self.model(union.batch, union.graph, **trim)
        # A trimmed forward returns the center rows only, a whole-ego
        # one every row: ``center_rows`` indexes either.
        source = self.source_batch
        raw = source.scaler.inverse_transform(
            scaled.data[union.center_rows], source.levels[union.centers])
        self.metrics.observe("forward_rows", float(union.batch.num_shops))
        self.metrics.inc("batches_total")
        self.metrics.observe(
            "batch_size", float(sum(len(by_shop[s]) for s in shops)))
        store = self._data_store
        data_month = int(store.frontier) if store is not None else -1
        tick_seq = int(store.ticks_applied) if store is not None else -1
        for row, shop in enumerate(shops):
            forecast = raw[row].copy()
            forecast.setflags(write=False)
            nodes = reads[shop]
            self.result_cache.put(shop, self.model_version,
                                  forecast, nodes.size, nodes=nodes,
                                  data_month=data_month, tick_seq=tick_seq)
            for request in by_shop[shop]:
                self._resolve(request, forecast, nodes.size, cached=False,
                              batch_size=batch_size)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """Requests currently parked in the micro-batcher.

        Reads the batcher length under its lock, so concurrent admission
        threads and the queue health probe always see a consistent count.
        """
        return len(self.batcher)

    def shed_rate(self) -> float:
        """Fraction of offered requests that were shed.

        Offered = everything through :meth:`submit` (``requests_total``);
        shed covers door refusals, preemptions and deadline expiries.
        ``0.0`` before any traffic.
        """
        total = self.metrics.counter("requests_total")
        if not total:
            return 0.0
        return self.metrics.counter("requests_shed") / total

    def health(self) -> Dict[str, object]:
        """Aggregated liveness/readiness across the attached subsystems.

        Runs every probe on :attr:`health_server` — the gateway probe
        (queue depth), the registry probe when a
        :class:`~repro.deploy.model_server.ModelRegistry` is attached, and
        the streaming probe once :meth:`attach_stream` connected a feature
        store.  External components (online adapter, durable journal)
        register through ``gateway.health_server.register``.
        """
        return self.health_server.check()

    def metrics_report(self) -> Dict[str, object]:
        """Serialisable snapshot of gateway health and traffic."""
        report = self.metrics.snapshot(max_batch_size=self.config.max_batch_size)
        report["serving_version"] = self.model_version
        # Hit rates are ``cache_hit_rate`` and the ``*cache_hits`` /
        # ``*cache_misses`` counters above: the gateway counts what it
        # served, the caches only what capacity pushed out.
        report["subgraph_cache"] = {
            "size": len(self.subgraph_cache),
            "evictions": self.subgraph_cache.stats.evictions,
            "epoch": self.subgraph_cache.epoch,
        }
        report["result_cache"] = {
            "size": len(self.result_cache),
            "evictions": self.result_cache.stats.evictions,
        }
        report["streaming"] = self._stream_graph is not None
        if self._data_store is not None:
            report["data_freshness"] = {
                **self._data_store.freshness_report(),
                "max_staleness_months": self.config.max_staleness_months,
                "freshness_evictions":
                    self.metrics.counter("freshness_evictions"),
                "stale_results_served":
                    self.metrics.counter("stale_results_served"),
            }
        counter = self.metrics.counter
        report["admission"] = {
            # Echoes the config; the two values it resolved to follow
            # (``inf`` = unbounded queue / no default budget).
            "enabled": self.config.admission,
            "max_queue_depth": self.admission.max_queue_depth,
            "default_deadline_s": self.admission.default_deadline_s,
            "shed_retry_after_s": self.admission.shed_retry_after_s,
            "queue_depth": self.queue_depth(),
            "requests_admitted": counter("requests_admitted"),
            "requests_shed": counter("requests_shed"),
            "requests_shed_by_class": {
                name: counter(f"requests_shed_{name}")
                for name in PRIORITIES
            },
            "requests_expired": counter("requests_expired"),
            "shed_rate": self.shed_rate(),
            "service_time_ewma_s": self.batcher.service_time_ewma,
            "decisions_logged": len(self.admission.decisions),
        }
        report["engine"] = {
            "mode": engine.engine_mode(),
            **engine.stats_snapshot(),
        }
        return report
