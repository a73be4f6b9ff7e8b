"""The streaming event model: shop/edge/sales events and a replayable log.

Real marketplaces never stand still: shops open, supply-chain and
ownership edges are mined (and retracted), and sales land continuously.
This module defines the four event kinds the streaming subsystem speaks
— :class:`ShopAdded`, :class:`EdgeAdded`, :class:`EdgeRetired`,
:class:`SalesTick` — plus :class:`EventLog`, an append-only,
deterministic, replayable record of everything that happened.

Every downstream consumer (the
:class:`~repro.streaming.dynamic_graph.DynamicGraph` overlay, the
:class:`~repro.streaming.features.StreamingFeatureStore`, the serving
gateway's delta invalidation, the online adapter) is a pure fold over
this log, which is what makes the subsystem's equivalence guarantee
checkable: replaying any prefix and compacting must equal a cold
rebuild from the same prefix.

Edge retirement semantics: :func:`edge_history` (shared with the
dynamic graph) retires the **most recently added live** edge matching
``(src, dst, edge_type)`` — multigraph duplicates pop in LIFO order —
and raises when no live match exists, so a log can never silently
diverge from the graph it describes.

Event time vs arrival time: every event carries the timeline month it
*belongs to* (``event.month``, event time), while its position in the
log records when it *arrived* (arrival time).  A well-behaved feed
appends in event-time order, but a real marketplace does not — partial
sales for an old month land days after the month closed.  The log
therefore tracks its **event-time frontier** (:attr:`EventLog.frontier`,
the highest month any appended event belongs to) and counts
:attr:`EventLog.late_arrivals` (events appended after the frontier had
already passed their month).  Consumers that need a deterministic
event-time view use :meth:`EventLog.by_event_time`, a stable sort that
keeps same-month arrival order.  The admission policy for late events
(how far behind the frontier a tick may trail before it is dropped) is
a *consumer* concern — see
:class:`~repro.streaming.features.StreamingFeatureStore`'s watermark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "ShopEvent",
    "ShopAdded",
    "EdgeAdded",
    "EdgeRetired",
    "SalesTick",
    "EventLog",
    "EdgeHistory",
    "edge_history",
    "live_edge_stacks",
]


def live_edge_stacks(graph) -> "Dict[Tuple[int, int, int], List[int]]":
    """LIFO stacks of edge positions per ``(src, dst, type)`` key.

    THE retirement-rule data structure: ``EdgeRetired`` pops the most
    recently added live position for its key.  The cold fold
    (:func:`edge_history`) seeds its stacks here; the online overlay
    (:class:`~repro.streaming.dynamic_graph.DynamicGraph`) materialises
    the same stacks lazily per key, so the rule cannot silently diverge
    between them.
    """
    stacks: Dict[Tuple[int, int, int], List[int]] = {}
    for pos in range(graph.num_edges):
        key = (int(graph.src[pos]), int(graph.dst[pos]),
               int(graph.edge_types[pos]))
        stacks.setdefault(key, []).append(pos)
    return stacks


@dataclass(frozen=True)
class ShopEvent:
    """Base class for everything that can enter the event log.

    ``month`` is the timeline month the event lands in; within a month,
    log order is authoritative (events are totally ordered by their
    position in the log, never by wall clock).
    """

    month: int


@dataclass(frozen=True)
class ShopAdded(ShopEvent):
    """A shop enters the marketplace.

    ``shop_index`` is the dense node index the shop will occupy.  The
    optional industry/region/opened fields carry what the paper's static
    feature extractor needs, so a streaming consumer can build static
    feature rows without a database round-trip.
    """

    shop_index: int = 0
    industry: str = ""
    region: str = ""


@dataclass(frozen=True)
class EdgeAdded(ShopEvent):
    """A directed edge (supply-chain or ownership) is mined."""

    src: int = 0
    dst: int = 0
    edge_type: int = 0


@dataclass(frozen=True)
class EdgeRetired(ShopEvent):
    """A previously added edge is retracted (tombstoned)."""

    src: int = 0
    dst: int = 0
    edge_type: int = 0


@dataclass(frozen=True)
class SalesTick(ShopEvent):
    """One month of sales lands for a shop."""

    shop_index: int = 0
    gmv: float = 0.0
    orders: int = 0
    customers: int = 0


class EventLog:
    """Append-only, replayable record of marketplace events.

    The log is the single source of truth for streaming state: consumers
    replay it (fully, or incrementally via :meth:`since`) and must reach
    identical state for identical prefixes.  Events are indexed by
    append position; :attr:`high_water` names the next position, so an
    incremental consumer can checkpoint where it stopped.

    Append order is *arrival* order; each event's ``month`` is its
    *event time*.  The log never reorders or drops anything — it records
    the feed exactly as it came, including out-of-order ticks — and
    keeps two cheap event-time statistics as it grows:

    >>> log = EventLog()
    >>> log.append(SalesTick(month=3, shop_index=0, gmv=10.0))
    0
    >>> log.append(SalesTick(month=2, shop_index=1, gmv=5.0))  # late
    1
    >>> log.frontier, log.late_arrivals
    (3, 1)
    >>> [e.month for e in log.by_event_time()]
    [2, 3]

    Durability: pass ``durable`` (a
    :class:`~repro.streaming.durable.DurableEventLog`) and every append
    is journaled to disk *before* it enters memory — write-ahead order,
    so a crash can lose un-journaled in-memory events but a journaled
    prefix always replays to exactly what consumers saw.  Reopen a
    journal with :meth:`from_durable`.
    """

    def __init__(self, events: Optional[Iterable[ShopEvent]] = None,
                 durable=None) -> None:
        self._events: List[ShopEvent] = []
        self._durable = None
        #: Event-time frontier: highest month any appended event belongs
        #: to (``-1`` while empty).
        self.frontier = -1
        #: Events that arrived after the frontier had passed their month.
        self.late_arrivals = 0
        if durable is not None:
            self.attach_durable(durable)
        if events is not None:
            for event in events:
                self.append(event)

    def attach_durable(self, backend) -> None:
        """Journal every future append through ``backend`` (write-ahead).

        The backend's head must equal this log's — attaching a backend
        that is ahead (or behind) would silently desynchronise offsets;
        replay it first via :meth:`from_durable`.
        """
        if backend.high_water != len(self._events):
            raise ValueError(
                f"durable backend at offset {backend.high_water} does not "
                f"match log at {len(self._events)}; use "
                "EventLog.from_durable to replay it first"
            )
        self._durable = backend

    @classmethod
    def from_durable(cls, backend) -> "EventLog":
        """Rehydrate an in-memory log from a journal, then keep journaling.

        Events already on disk are replayed into memory *without* being
        re-written; subsequent appends journal through ``backend`` as
        usual.
        """
        log = cls()
        for event in backend.since(0):
            log._append_memory(event)
        log.attach_durable(backend)
        return log

    @property
    def durable(self):
        """The attached durable backend, or ``None`` (in-memory only)."""
        return self._durable

    def _append_memory(self, event: ShopEvent) -> int:
        month = int(event.month)
        if month < self.frontier:
            self.late_arrivals += 1
        else:
            self.frontier = month
        self._events.append(event)
        return len(self._events) - 1

    def append(self, event: ShopEvent) -> int:
        """Add one event; returns its log position.

        With a durable backend attached the event hits disk first — an
        append that journals successfully is recoverable even if the
        process dies before any consumer folds it.
        """
        if not isinstance(event, ShopEvent):
            raise TypeError(f"not a ShopEvent: {event!r}")
        if self._durable is not None:
            self._durable.append(event)
        return self._append_memory(event)

    def extend(self, events: Iterable[ShopEvent]) -> None:
        """Append several events in order."""
        for event in events:
            self.append(event)

    @property
    def high_water(self) -> int:
        """Next append position (= number of events logged)."""
        return len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ShopEvent]:
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    def since(self, position: int) -> List[ShopEvent]:
        """Events appended at or after ``position`` (for incremental replay)."""
        if position < 0:
            raise ValueError(f"position must be non-negative, got {position}")
        return self._events[position:]

    def month_slice(self, month: int) -> List[ShopEvent]:
        """All events of one timeline month, in log order."""
        return [e for e in self._events if e.month == month]

    def by_event_time(self) -> List[ShopEvent]:
        """The log re-sequenced into event-time order.

        A *stable* sort by ``month``: late arrivals move back to the
        month they belong to while same-month events keep their arrival
        order.  This is the canonical in-order replay a shuffled feed is
        compared against — folding a log and folding
        ``log.by_event_time()`` through an unbounded-watermark consumer
        must reach identical state.
        """
        return sorted(self._events, key=lambda event: event.month)


@dataclass
class EdgeHistory:
    """Full edge history of a log: every addition plus a liveness mask.

    This is exactly the input of
    :meth:`~repro.graph.graph.ESellerGraph.from_edit_history`; feeding
    it there is the canonical "cold rebuild" the streaming equivalence
    guarantee is stated against.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    edge_types: np.ndarray
    alive: np.ndarray


def edge_history(
    events: Iterable[ShopEvent], num_nodes: int = 0, base=None
) -> EdgeHistory:
    """Fold a log into its edge history (the shared retirement rule).

    ``num_nodes`` seeds the node count; :class:`ShopAdded` events grow
    it.  ``base`` (an :class:`~repro.graph.graph.ESellerGraph` snapshot)
    seeds the history with pre-existing live edges, so a log whose
    retirements target snapshot edges folds cleanly.
    :class:`EdgeRetired` tombstones the most recently added live match
    and raises ``LookupError`` when none exists — the same rule
    :class:`~repro.streaming.dynamic_graph.DynamicGraph` applies online,
    so a cold fold and an incremental overlay can never disagree.
    """
    src: List[int] = []
    dst: List[int] = []
    types: List[int] = []
    alive: List[bool] = []
    live: Dict[Tuple[int, int, int], List[int]] = {}
    nodes = int(num_nodes)
    if base is not None:
        nodes = max(nodes, base.num_nodes)
        live = live_edge_stacks(base)
        src = [int(s) for s in base.src]
        dst = [int(d) for d in base.dst]
        types = [int(t) for t in base.edge_types]
        alive = [True] * base.num_edges
    for event in events:
        if isinstance(event, ShopAdded):
            if event.shop_index < 0:
                # Match StreamingFeatureStore._ensure_capacity: the two
                # folds of one log must reject the same events, or they
                # silently diverge on which shops exist.
                raise IndexError(
                    f"shop index must be non-negative, got {event.shop_index}"
                )
            nodes = max(nodes, event.shop_index + 1)
        elif isinstance(event, EdgeAdded):
            key = (int(event.src), int(event.dst), int(event.edge_type))
            if key[0] >= nodes or key[1] >= nodes or min(key[:2]) < 0:
                raise IndexError(
                    f"edge {key[:2]} out of range for {nodes} shops"
                )
            live.setdefault(key, []).append(len(src))
            src.append(key[0])
            dst.append(key[1])
            types.append(key[2])
            alive.append(True)
        elif isinstance(event, EdgeRetired):
            key = (int(event.src), int(event.dst), int(event.edge_type))
            if key[0] >= nodes or key[1] >= nodes or min(key[:2]) < 0:
                raise IndexError(
                    f"edge {key[:2]} out of range for {nodes} shops"
                )
            stack = live.get(key)
            if not stack:
                raise LookupError(f"no live edge {key} to retire")
            alive[stack.pop()] = False
    return EdgeHistory(
        num_nodes=nodes,
        src=np.asarray(src, dtype=np.int64),
        dst=np.asarray(dst, dtype=np.int64),
        edge_types=np.asarray(types, dtype=np.int64),
        alive=np.asarray(alive, dtype=bool),
    )
