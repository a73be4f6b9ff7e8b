"""Micro-batching: request scheduling and node-disjoint batch assembly.

The gateway never runs one model forward per request.  Every request
parks in the one :class:`MicroBatcher` until a batch is **due** — a
full ``max_batch_size`` is parked, the oldest request has waited
``max_wait`` seconds, or the tightest parked deadline would be at risk
if the batcher kept waiting for occupancy (an EWMA of recent batch
service times is the risk estimate).  The drained batch is then
laid out as a single *node-disjoint* graph — each request its own
connected component, shared shops repeated per component — and scored
with **one** forward pass.  Because components are disjoint and message
passing is strictly per-node / per-edge, every center's output is that
of the per-request forward (to 1e-12; bit for bit except where BLAS
rounds a row by its position in the batch).

What the union holds is what the model reads: for a model with
receptive depth ``L``, :func:`gather_batch` gathers the rows of one
labelled in-edge traversal of the centers
(:func:`repro.graph.sampling.receptive_layout`), ordered so that
everything a layer needs is a *prefix* of the row and edge arrays
(:class:`DisjointBatch` carries the two cumulative counts) and a trimmed
forward slices instead of gathering.  A model that declares no depth
reads whole ego-subgraphs, stitched by :func:`build_disjoint_batch`.

*Which* requests a batch contains is a schedule, not a mode: every
request carries a **priority class** (:data:`PRIORITIES`) and an
absolute **deadline**, and a drain picks earliest-deadline-first
within strict priority order, arrival order breaking ties.  A stream
that never sets either — default class, no deadline or budgets stamped
in arrival order — therefore drains first-in first-out, the contract
bulk ``predict_many`` callers rely on (property-tested in
``tests/test_admission.py``).  The admission layer in
:mod:`repro.serving.admission` uses :meth:`MicroBatcher.shed_candidate`
/ :meth:`MicroBatcher.remove` to preempt parked low-priority work when
a bounded queue fills.

Queue mutations are serialized under one lock: ``submit``, ``drain``,
``remove`` and ``__len__`` are safe to call from concurrent admission
threads, and a drain can never drop a request submitted concurrently
(the old slice-then-reassign drain lost such requests).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import InstanceBatch
from ..graph.graph import ESellerGraph
from ..graph.sampling import EgoSubgraph, ReceptiveLayout
from ..obs import clock as obs_clock

__all__ = [
    "PRIORITIES",
    "priority_rank",
    "PendingRequest",
    "MicroBatcher",
    "DisjointBatch",
    "build_disjoint_batch",
    "gather_batch",
]

#: Priority classes, best first.  Scheduling is strict-priority: a
#: drain never takes a ``"normal"`` request while a ``"high"`` one is
#: parked, and load shedding preempts the *worst* class first.
PRIORITIES = ("high", "normal", "low")

_PRIORITY_RANK = {name: rank for rank, name in enumerate(PRIORITIES)}


def priority_rank(priority: str) -> int:
    """Scheduling rank of a priority class (0 is best; raises on unknown).

    >>> [priority_rank(p) for p in PRIORITIES]
    [0, 1, 2]
    """
    try:
        return _PRIORITY_RANK[priority]
    except KeyError:
        raise ValueError(
            f"unknown priority {priority!r}; pick from {PRIORITIES}"
        ) from None


def _schedule_key(request: "PendingRequest") -> Tuple[int, float, int]:
    """Drain order: strict priority, then earliest deadline, then arrival."""
    return (priority_rank(request.priority), request.deadline, request.seq)


@dataclass
class PendingRequest:
    """One enqueued prediction request awaiting a batch slot.

    ``priority`` and ``deadline`` (an *absolute* clock reading; ``inf``
    means no budget) drive the :class:`MicroBatcher` schedule; ``seq``
    is the admission sequence number — the deterministic tiebreaker
    that keeps replays of one arrival sequence bitwise identical.
    """

    shop_index: int
    enqueued_at: float
    response: Optional[object] = None
    done: bool = False
    error: Optional[BaseException] = None
    priority: str = "normal"
    deadline: float = math.inf
    seq: int = 0

    def resolve(self, response: object) -> None:
        """Attach the finished response."""
        self.response = response
        self.done = True

    def fail(self, error: BaseException) -> None:
        """Mark the request as failed; :meth:`result` re-raises ``error``.

        Per-request failure containment: one unservable request (e.g. a
        streamed-in shop whose neighborhood has no feature rows yet)
        must not poison the co-batched requests sharing its flush.
        """
        self.error = error
        self.done = True

    def result(self):
        """The finished response (raises until the batch flushed)."""
        if not self.done:
            raise RuntimeError(
                f"request for shop {self.shop_index} not served yet; "
                "flush the gateway first"
            )
        if self.error is not None:
            raise self.error
        return self.response


class MicroBatcher:
    """The gateway's one request queue: deadline- and priority-aware.

    * **Scheduling** — :meth:`drain` hands back up to ``max_batch_size``
      requests ordered by ``(priority rank, deadline, admission seq)``:
      strict priority first (a high-priority request is never parked
      while lower traffic drains), earliest-deadline-first within a
      class, arrival order as the deterministic tiebreaker.  With every
      request on the default class and deadlines that never decrease
      (or none at all) that key *is* arrival order.
    * **Occupancy vs latency** — :meth:`due` reports a batch due when a
      full one is parked, when the oldest parked request exceeded
      ``max_wait``, or when the tightest parked deadline has less slack
      left than one batch service time (:attr:`service_time_ewma`, fed
      by the gateway via :meth:`observe_service`).  Waiting longer for
      a fuller batch would push that request past its budget, so the
      batcher trades occupancy for latency exactly at the break-even
      point.
    * **Preemption support** — :meth:`shed_candidate` nominates the
      worst parked victim (lowest class, then latest deadline, then
      newest) strictly below a given priority, for the bounded-queue
      admission layer to :meth:`remove`.

    Synchronous and clock-injectable, so the flush policy is
    deterministic under test.  Queue mutations are lock-serialized:
    concurrent ``submit`` calls (admission threads) can interleave with
    ``drain`` / ``__len__`` (the serving loop, the gateway health
    probe) without losing requests.

    >>> batcher = MicroBatcher(max_batch_size=2, max_wait=10.0,
    ...                        clock=lambda: 0.0)
    >>> _ = batcher.submit(0, priority="low", deadline=9.0)
    >>> _ = batcher.submit(1, priority="high", deadline=5.0)
    >>> _ = batcher.submit(2, priority="high", deadline=1.0)
    >>> [r.shop_index for r in batcher.drain()]  # EDF within priority
    [2, 1]
    """

    def __init__(self, max_batch_size: int = 32, max_wait: float = 0.005,
                 clock=None, service_alpha: float = 0.3) -> None:
        if max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be non-negative, got {max_wait}")
        if not 0.0 < service_alpha <= 1.0:
            raise ValueError(
                f"service_alpha must be in (0, 1], got {service_alpha}"
            )
        self.max_batch_size = int(max_batch_size)
        self.max_wait = float(max_wait)
        # Defaults to the injectable observability clock so max_wait
        # deadlines are testable under a FakeClock without sleeping.
        self._clock = clock or obs_clock.now
        #: Parked requests in arrival order (so ``[0]`` is the oldest).
        self._pending: List[PendingRequest] = []
        self._lock = threading.Lock()
        self._seq = 0
        #: EWMA of recent batch service times — the deadline-risk
        #: estimate ``due`` trades occupancy against.
        self.service_time_ewma = 0.0
        self._service_alpha = float(service_alpha)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    def submit(self, shop_index: int, priority: str = "normal",
               deadline: float = math.inf) -> Tuple[PendingRequest, bool]:
        """Park one request; returns ``(request, batch_is_full)``."""
        with self._lock:
            request = PendingRequest(
                shop_index=int(shop_index), enqueued_at=self._clock(),
                priority=priority, deadline=float(deadline), seq=self._seq,
            )
            self._seq += 1
            self._pending.append(request)
            return request, len(self._pending) >= self.max_batch_size

    def observe_service(self, seconds: float) -> None:
        """Feed one measured batch service time into the EWMA."""
        seconds = max(float(seconds), 0.0)
        if self.service_time_ewma == 0.0:
            self.service_time_ewma = seconds
        else:
            alpha = self._service_alpha
            self.service_time_ewma += alpha * (seconds - self.service_time_ewma)

    def due(self) -> bool:
        """A full batch, the occupancy timer, *or* a deadline at risk."""
        with self._lock:
            if not self._pending:
                return False
            if len(self._pending) >= self.max_batch_size:
                return True
            now = self._clock()
            if (now - self._pending[0].enqueued_at) >= self.max_wait:
                return True
            tightest = min(request.deadline for request in self._pending)
            return tightest - now <= self.service_time_ewma

    def drain(self) -> List[PendingRequest]:
        """Up to ``max_batch_size`` requests, EDF within strict priority."""
        with self._lock:
            batch = sorted(self._pending,
                           key=_schedule_key)[: self.max_batch_size]
            chosen = {request.seq for request in batch}
            self._pending = [
                request for request in self._pending
                if request.seq not in chosen
            ]
            return batch

    def remove(self, request: PendingRequest) -> bool:
        """Unpark one specific request (load-shedding preemption).

        Returns ``False`` when the request is no longer parked — it
        raced into a drain and will be served; the caller must not shed
        it.  Matching is by admission ``seq``, which is unique.
        """
        with self._lock:
            for index, parked in enumerate(self._pending):
                if parked.seq == request.seq:
                    del self._pending[index]
                    return True
            return False

    def shed_candidate(self, priority: str) -> Optional[PendingRequest]:
        """Worst parked request *strictly below* ``priority``, or ``None``.

        "Worst" = lowest class, then latest deadline, then newest
        arrival — the request whose eviction costs the least service
        quality.  ``None`` means nothing parked is lower than the
        incoming class, so a full queue must shed the newcomer instead.
        """
        rank = priority_rank(priority)
        with self._lock:
            victims = [r for r in self._pending
                       if priority_rank(r.priority) > rank]
            return max(victims, key=_schedule_key, default=None)


@dataclass
class DisjointBatch:
    """The rows and edges one forward reads of a node-disjoint union.

    Every request is its own connected component, shared shops repeated
    per component.  For a model with a receptive depth it is a labelled
    :class:`~repro.graph.sampling.ReceptiveLayout` of the centers
    (:func:`gather_batch`), ``rows_within`` / ``edges_into`` its
    per-depth prefix counts and ``center_rows == arange(num_requests)``;
    for one without, the whole egos component by component
    (:func:`build_disjoint_batch`), every row at level 0.  ``batch`` is
    the row-gathered :class:`~repro.data.dataset.InstanceBatch` matching
    ``graph``.
    """

    graph: ESellerGraph
    batch: InstanceBatch
    center_rows: np.ndarray
    centers: np.ndarray
    rows_within: np.ndarray
    edges_into: np.ndarray

    @property
    def num_requests(self) -> int:
        """Number of coalesced requests in the union."""
        return int(self.center_rows.size)


def gather_batch(layout: ReceptiveLayout, centers: Sequence[int],
                 source_batch: InstanceBatch) -> DisjointBatch:
    """The feature rows of ``receptive_layout(graph, centers, depth,
    labelled=True)``, gathered with one :meth:`InstanceBatch.subset`
    call (a shop two requests read is two rows)."""
    return DisjointBatch(
        graph=layout.graph,
        batch=source_batch.subset(layout.rows),
        center_rows=layout.seed_rows,
        centers=np.asarray(centers, dtype=np.int64),
        rows_within=layout.rows_within,
        edges_into=layout.edges_into,
    )


def build_disjoint_batch(egos: Sequence[EgoSubgraph],
                         source_batch: InstanceBatch) -> DisjointBatch:
    """Stitch whole ego-subgraphs into one block-diagonal graph + batch.

    Node ids are offset per ego (edges in each ego's order) and the rows
    gathered with one :meth:`InstanceBatch.subset` call (overlapping egos
    repeat the shared rows): what a model without a receptive depth reads.
    """
    if not egos:
        raise ValueError("cannot build a batch from zero ego-subgraphs")
    sizes = np.array([ego.num_nodes for ego in egos], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    # One shift per edge — its component's offset — instead of an add
    # per ego and endpoint array.
    shift = offsets.repeat([ego.subgraph.num_edges for ego in egos])
    graph = ESellerGraph(
        int(sizes.sum()),
        np.concatenate([ego.subgraph.src for ego in egos]) + shift,
        np.concatenate([ego.subgraph.dst for ego in egos]) + shift,
        np.concatenate([ego.subgraph.edge_types for ego in egos]),
    )
    return DisjointBatch(
        graph=graph,
        batch=source_batch.subset(np.concatenate([ego.nodes for ego in egos])),
        center_rows=offsets + np.array([ego.center_local for ego in egos],
                                       dtype=np.int64),
        centers=np.array([ego.center for ego in egos], dtype=np.int64),
        rows_within=np.array([graph.num_nodes] * 2, dtype=np.int64),
        edges_into=np.array([graph.num_edges], dtype=np.int64),
    )
