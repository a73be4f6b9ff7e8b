"""Incrementally mutable view over :class:`~repro.graph.graph.ESellerGraph`.

The static graph is append-only numpy arrays plus a lazily built CSR
index; any mutation would force a full rebuild and (worse) a wholesale
flush of every serving cache keyed on node sets.  :class:`DynamicGraph`
makes mutation cheap instead:

* a frozen **base** graph keeps its CSR index across arbitrarily many
  events;
* additions land in a small **overlay** (edge arrays plus per-node
  adjacency lists);
* retirements **tombstone** edges (a liveness mask over base + overlay)
  without moving anything.

Queries merge the three planes on the fly, so they see every update
immediately — no per-event CSR rebuilds, and no pass over the overlay
either: a query touches the asked nodes' adjacency only.  The overlay
does not run its own traversal: it answers the same two questions a
static graph does (``num_nodes`` and
:meth:`~DynamicGraph.incident_edges`) and the one breadth-first loop and
ego assembly of :mod:`repro.graph.sampling` (``k_hop_nodes(dyn, ...)``,
``ego_subgraphs(dyn, ...)``) run over either kind.  When the overlay plus
tombstones outgrow ``compact_threshold`` of the live edge count,
:meth:`compact` folds everything into a fresh base through
``ESellerGraph.from_edit_history``; the fresh base sorts its CSR index
lazily on its first query, like any static graph.

**Equivalence guarantee.**  After ``compact()``, the base graph is
*identical* — same ``num_nodes``, same edge arrays in the same order —
to ``ESellerGraph.from_edit_history`` applied to the full event history
in one shot: surviving edges keep addition order, tombstoned edges
vanish, and intermediate compactions are invisible because they
preserve the relative order of survivors.  Since edge order fixes the
float accumulation order of message passing, forecasts computed through
a dynamic graph match a cold rebuild bit-for-bit (and stay within the
subsystem's 1e-12 budget end to end).  ``tests/test_streaming.py``
asserts this property over random event sequences.

Mutation listeners: consumers (the serving gateway's delta-aware cache
invalidation) subscribe with :meth:`subscribe` and receive the *touched
frontier* — the endpoints of each mutation — after every applied event,
which is exactly the set against which cached ego node sets must be
intersected.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.graph import ESellerGraph
from ..obs import tracing as obs_tracing
from .events import (
    EdgeAdded,
    EdgeRetired,
    SalesTick,
    ShopAdded,
    ShopEvent,
)

__all__ = ["DynamicGraph"]

#: What a :class:`SalesTick` touches: one shared, read-only empty frontier.
_NO_NODES = np.zeros(0, dtype=np.int64)
_NO_NODES.flags.writeable = False


def _edge_frontier(src: int, dst: int) -> np.ndarray:
    """An edge's endpoints, sorted and deduplicated (a self-loop is one)."""
    return np.array(sorted({src, dst}), dtype=np.int64)


class DynamicGraph:
    """Delta overlay (additions + tombstones) over a frozen base graph.

    Parameters
    ----------
    base:
        The deployed snapshot.  Never mutated; its CSR index keeps
        serving queries fast while events accumulate in the overlay.
    compact_threshold:
        Auto-compact when ``(overlay + tombstones) > threshold * live``
        (and the overhead exceeds ``min_compact_edges``).  ``None``
        disables auto-compaction (manual :meth:`compact` only).
    min_compact_edges:
        Floor below which auto-compaction never triggers, so tiny graphs
        don't compact on every other event.

    >>> from repro.graph import ESellerGraph
    >>> dyn = DynamicGraph(ESellerGraph(3, [0], [1], [0]),
    ...                    compact_threshold=None)
    >>> dyn.add_edge(1, 2)
    >>> dyn.retire_edge(0, 1)
    >>> dyn.num_edges, dyn.tombstones
    (1, 1)
    >>> from repro.graph import k_hop_nodes
    >>> k_hop_nodes(dyn, [1], 1).tolist()
    [1, 2]
    >>> dyn.compact().num_edges        # overlay + tombstones folded away
    1
    """

    def __init__(
        self,
        base: ESellerGraph,
        compact_threshold: Optional[float] = 0.5,
        min_compact_edges: int = 256,
    ) -> None:
        if compact_threshold is not None and compact_threshold <= 0:
            raise ValueError(
                f"compact_threshold must be positive, got {compact_threshold}"
            )
        self.compact_threshold = compact_threshold
        self.min_compact_edges = int(min_compact_edges)
        self.compactions = 0
        self.events_applied = 0
        self._listeners: List[Callable[[np.ndarray], None]] = []
        self._suppress_notify = False
        self._reset_from(base)

    # ------------------------------------------------------------------
    # internal state management
    # ------------------------------------------------------------------
    def _reset_from(self, base: ESellerGraph) -> None:
        """Point at a fresh base graph with an empty overlay."""
        self._base = base
        self.num_nodes = base.num_nodes
        self._base_alive = np.ones(base.num_edges, dtype=bool)
        self._dead = 0
        self._ov_src: List[int] = []
        self._ov_dst: List[int] = []
        self._ov_type: List[int] = []
        self._ov_alive: List[bool] = []
        self._ov_out: Dict[int, List[int]] = {}
        self._ov_in: Dict[int, List[int]] = {}
        self._ov_live = 0
        # LIFO stacks of global edge positions (base: 0..B-1, overlay:
        # B..) per (src, dst, type) key — the retirement rule shared
        # with the cold fold (events.edge_history).  Materialised lazily
        # *per key* on the first retirement that needs it, so neither
        # construction nor compaction pays an O(E) Python pass for a
        # structure only retirements read.
        self._live: Dict[Tuple[int, int, int], List[int]] = {}
        self._out_deg = base.out_degrees()
        self._in_deg = base.in_degrees()

    @property
    def base(self) -> ESellerGraph:
        """The current frozen base graph (changes only on compaction)."""
        return self._base

    @property
    def num_edges(self) -> int:
        """Number of live edges (base survivors + live overlay)."""
        return self._base.num_edges - self._dead + self._ov_live

    @property
    def overlay_size(self) -> int:
        """Edges currently held outside the base (alive or tombstoned)."""
        return len(self._ov_src)

    @property
    def tombstones(self) -> int:
        """Retired edges not yet reclaimed by compaction."""
        return self._dead + len(self._ov_alive) - self._ov_live

    def __repr__(self) -> str:
        return (f"DynamicGraph(num_nodes={self.num_nodes}, "
                f"num_edges={self.num_edges}, overlay={self.overlay_size}, "
                f"tombstones={self.tombstones})")

    # ------------------------------------------------------------------
    # mutation listeners
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[np.ndarray], None]) -> None:
        """Register a callback receiving each mutation's touched frontier."""
        self._listeners.append(callback)

    def unsubscribe(self, callback: Callable[[np.ndarray], None]) -> None:
        """Remove a previously registered mutation callback."""
        self._listeners.remove(callback)

    def _notify(self, touched: np.ndarray) -> None:
        if touched.size == 0 or self._suppress_notify:
            return
        for callback in list(self._listeners):
            callback(touched)

    @property
    def _listened(self) -> bool:
        """Whether a mutation's frontier would reach a listener now;
        the single-event mutations build it only then."""
        return bool(self._listeners) and not self._suppress_notify

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def add_shop(self, shop_index: Optional[int] = None) -> int:
        """Register a shop node; returns its index.

        ``None`` appends a brand-new node.  An explicit index at or
        beyond ``num_nodes`` grows the node space to cover it; an
        existing index is a presence marker (arrival of a shop whose
        slot was pre-allocated) and leaves the graph unchanged — either
        way listeners see the shop as the touched frontier.
        """
        if shop_index is None:
            shop_index = self.num_nodes
        shop_index = int(shop_index)
        if shop_index < 0:
            raise IndexError(f"shop index must be non-negative, got {shop_index}")
        if shop_index >= self.num_nodes:
            grow = shop_index + 1 - self.num_nodes
            self.num_nodes = shop_index + 1
            self._out_deg = np.concatenate(
                [self._out_deg, np.zeros(grow, dtype=np.int64)]
            )
            self._in_deg = np.concatenate(
                [self._in_deg, np.zeros(grow, dtype=np.int64)]
            )
        if self._listened:
            self._notify(np.array([shop_index], dtype=np.int64))
        return shop_index

    def add_edge(self, src: int, dst: int, edge_type: int = 0) -> None:
        """Append one live edge to the overlay."""
        src, dst, edge_type = int(src), int(dst), int(edge_type)
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise IndexError(
                f"edge ({src}, {dst}) out of range for {self.num_nodes} shops"
            )
        pos = self._base.num_edges + len(self._ov_src)
        self._ov_src.append(src)
        self._ov_dst.append(dst)
        self._ov_type.append(edge_type)
        self._ov_alive.append(True)
        self._ov_live += 1
        self._ov_out.setdefault(src, []).append(len(self._ov_src) - 1)
        self._ov_in.setdefault(dst, []).append(len(self._ov_src) - 1)
        stack = self._live.get((src, dst, edge_type))
        if stack is not None:          # maintain only materialised stacks
            stack.append(pos)
        self._out_deg[src] += 1
        self._in_deg[dst] += 1
        self._maybe_compact()
        if self._listened:
            self._notify(_edge_frontier(src, dst))

    def _stack_for(self, key: Tuple[int, int, int]) -> List[int]:
        """Materialise the LIFO retirement stack for one edge key.

        Built from the current liveness state: alive base positions in
        base order, then alive overlay positions in addition order —
        exactly the survivors an eagerly maintained stack would hold,
        since pops only ever remove elements without reordering the
        rest.  Cached until the next compaction; :meth:`add_edge` keeps
        materialised stacks current.
        """
        stack = self._live.get(key)
        if stack is None:
            base = self._base
            match = (base.src == key[0]) & (base.dst == key[1]) \
                & (base.edge_types == key[2]) & self._base_alive
            stack = np.flatnonzero(match).tolist()
            offset = base.num_edges
            for pos, alive in enumerate(self._ov_alive):
                if alive and self._ov_src[pos] == key[0] \
                        and self._ov_dst[pos] == key[1] \
                        and self._ov_type[pos] == key[2]:
                    stack.append(offset + pos)
            self._live[key] = stack
        return stack

    def retire_edge(self, src: int, dst: int, edge_type: int = 0) -> None:
        """Tombstone the most recently added live ``(src, dst, type)`` edge.

        Raises ``LookupError`` when no live match exists (same rule as
        :func:`~repro.streaming.events.edge_history`).
        """
        key = (int(src), int(dst), int(edge_type))
        stack = self._stack_for(key)
        if not stack:
            raise LookupError(f"no live edge {key} to retire")
        pos = stack.pop()
        if pos < self._base.num_edges:
            self._base_alive[pos] = False
            self._dead += 1
        else:
            self._ov_alive[pos - self._base.num_edges] = False
            self._ov_live -= 1
        self._out_deg[key[0]] -= 1
        self._in_deg[key[1]] -= 1
        self._maybe_compact()
        if self._listened:
            self._notify(_edge_frontier(key[0], key[1]))

    def apply(self, event: ShopEvent) -> np.ndarray:
        """Apply one log event; returns the touched node frontier.

        :class:`SalesTick` is a graph no-op (feature planes consume it)
        and touches nothing: it returns one shared read-only empty array.
        """
        self.events_applied += 1
        if isinstance(event, ShopAdded):
            return np.array([self.add_shop(event.shop_index)], dtype=np.int64)
        if isinstance(event, EdgeAdded):
            self.add_edge(event.src, event.dst, event.edge_type)
            return _edge_frontier(event.src, event.dst)
        if isinstance(event, EdgeRetired):
            self.retire_edge(event.src, event.dst, event.edge_type)
            return _edge_frontier(event.src, event.dst)
        if isinstance(event, SalesTick):
            return _NO_NODES
        raise TypeError(f"unknown event {event!r}")

    def apply_events(self, events: Sequence[ShopEvent]) -> np.ndarray:
        """Apply a batch of events; returns the union touched frontier.

        Listeners are notified **once** with the union frontier instead
        of per event — no query can interleave inside the batch, so one
        coalesced eviction pass over the caches is equivalent to (and a
        batch-factor cheaper than) per-event scans.  Use :meth:`apply`
        when queries genuinely interleave with single events.
        """
        touched: List[np.ndarray] = [_NO_NODES]
        self._suppress_notify = True
        try:
            with obs_tracing.span("streaming.event_apply"):
                for event in events:
                    touched.append(self.apply(event))
        finally:
            # Notify even when an event raised mid-batch: whatever was
            # already applied mutated the graph, and subscribed caches
            # must not keep serving its pre-mutation state.
            self._suppress_notify = False
            union = np.unique(np.concatenate(touched))
            self._notify(union)
        return union

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def _overhead(self) -> int:
        return self.overlay_size + self._dead

    def _maybe_compact(self) -> None:
        if self.compact_threshold is None:
            return
        overhead = self._overhead()
        if overhead < self.min_compact_edges:
            return
        if overhead > self.compact_threshold * max(self.num_edges, 1):
            self.compact()

    def compact(self) -> ESellerGraph:
        """Fold overlay + tombstones into a fresh base graph.

        The result equals ``ESellerGraph.from_edit_history`` over the
        full event history (see the module docstring); queries before
        and after compaction are indistinguishable, so no cache
        invalidation is needed and listeners are not notified.  The new
        base builds its CSR index lazily on its first query, like any
        other :class:`~repro.graph.graph.ESellerGraph`.
        """
        with obs_tracing.span("streaming.compact"):
            src = np.concatenate([
                self._base.src, np.asarray(self._ov_src, dtype=np.int64)
            ])
            dst = np.concatenate([
                self._base.dst, np.asarray(self._ov_dst, dtype=np.int64)
            ])
            types = np.concatenate([
                self._base.edge_types,
                np.asarray(self._ov_type, dtype=np.int64),
            ])
            alive = np.concatenate([
                self._base_alive, np.asarray(self._ov_alive, dtype=bool)
            ])
            base = ESellerGraph.from_edit_history(
                self.num_nodes, src, dst, types, alive
            )
            self._reset_from(base)
            self.compactions += 1
            return base

    def as_graph(self) -> ESellerGraph:
        """Current live graph as a static :class:`ESellerGraph`.

        Compacts when any delta is pending, so repeated calls on a quiet
        graph are free.
        """
        if self.overlay_size or self._dead or self._base.num_nodes != self.num_nodes:
            return self.compact()
        return self._base

    # ------------------------------------------------------------------
    # queries (base CSR + overlay merge)
    # ------------------------------------------------------------------
    def out_degrees(self) -> np.ndarray:
        """Live out-degree of every node."""
        return self._out_deg.copy()

    def in_degrees(self) -> np.ndarray:
        """Live in-degree of every node."""
        return self._in_deg.copy()

    def incident_edges(
        self, nodes: np.ndarray, out: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Live edges leaving (``out``) or entering each of ``nodes``.

        Same contract as :meth:`ESellerGraph.incident_edges
        <repro.graph.graph.ESellerGraph.incident_edges>`:
        ``(origin, position, other, edge_types)`` with ``origin``
        indexing into ``nodes``.  The base answers from its CSR index
        under this overlay's tombstone mask — nodes grown beyond the
        base have no row there and are skipped, ``origin`` remapped to
        the caller's indexing — and the asked nodes' live overlay
        adjacency is appended at positions ``base.num_edges + slot``.
        Positions therefore order edges exactly as :meth:`compact` lays
        them out (base survivors in base order, then overlay survivors
        in addition order): sorting an induced edge list by position
        gives the list the compacted graph would give, hence the same
        float accumulation order in message passing.
        """
        base = self._base
        alive = self._base_alive if self._dead else None
        if base.num_nodes == self.num_nodes:
            answer = base.incident_edges(nodes, out, alive)
        else:
            held = np.flatnonzero(nodes < base.num_nodes)
            origin, *rest = base.incident_edges(nodes[held], out, alive)
            answer = (held[origin], *rest)
        adjacency = self._ov_out if out else self._ov_in
        if not adjacency:
            return answer
        ends = self._ov_dst if out else self._ov_src
        found = [(index, base.num_edges + slot, ends[slot], self._ov_type[slot])
                 for index, node in enumerate(nodes.tolist())
                 for slot in adjacency.get(node, ())
                 if self._ov_alive[slot]]
        if not found:
            return answer
        return tuple(np.concatenate(pair) for pair in
                     zip(answer, np.array(found, dtype=np.int64).T))
