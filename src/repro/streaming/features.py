"""Streaming feature planes: event-fed GMV / activity / static tables.

The offline pipeline reads its feature blocks from the marketplace
database through the Fig 5 extractors.  In the streaming world the same
tables are maintained *incrementally*: :class:`StreamingFeatureStore`
is a fold of the event log into exactly the arrays
:class:`~repro.data.extractors.NodeFeatureExtractor` would emit — same
GMV table, same observed mask, same temporal features (cyclical month +
``log1p`` counts), same static one-hots — so a window assembled from the
store (:meth:`StreamingFeatureStore.instance_batch`) is *identical* to
one built from a cold database rebuild of the same event history.  That
equivalence is what lets the online adapter fine-tune on fresh windows
without ever re-running the batch extract.

Event-time correctness: ticks fold into the month they *belong to*
(``event.month``), not the month they arrive in, so an in-window late
tick lands in the correct cell and the fold result equals the in-order
replay.  A configurable **watermark** bounds how late is acceptable: a
tick trailing the store's event-time frontier by more than
``watermark`` months is dropped (never folded, never re-counted) and
surfaced in :attr:`StreamingFeatureStore.ticks_dropped` /
:meth:`StreamingFeatureStore.freshness_report`.  Consumers that care
about data freshness (the serving gateway's result cache) subscribe
via :meth:`StreamingFeatureStore.subscribe` and key their staleness
checks off the same frontier.  The store is the one owner of event
time — the event log and its journal keep none — and also the one
record of *which* cells received accepted ticks
(:attr:`StreamingFeatureStore.ticked`): the online adapter reads its
fresh-evidence set from that table instead of folding the stream a
second time.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

import numpy as np

from ..data.dataset import InstanceBatch, make_instance_batch
from ..data.extractors import static_block, temporal_block
from ..data.scaling import ShopLevelScaler, StandardScaler
from ..obs import tracing as obs_tracing
from .events import SalesTick, ShopAdded, ShopEvent

__all__ = ["StreamingFeatureStore", "grow_rows"]


def grow_rows(array: np.ndarray, num_rows: int, fill=0) -> np.ndarray:
    """Return ``array`` extended to ``num_rows`` leading rows.

    New rows are filled with ``fill``; the input is returned unchanged
    when it is already large enough.  The one grow-on-arrival policy
    shared by every streaming consumer that keys state by shop index
    (feature tables, drift EWMAs).
    """
    grow = num_rows - array.shape[0]
    if grow <= 0:
        return array
    pad = np.full((grow,) + array.shape[1:], fill, dtype=array.dtype)
    return np.concatenate([array, pad])


class StreamingFeatureStore:
    """Incrementally maintained node-feature tables over a fixed timeline.

    Parameters
    ----------
    num_shops:
        Initial shop capacity; :class:`ShopAdded` events beyond it grow
        the tables.
    num_months:
        Timeline length (columns of every monthly table).
    watermark:
        Maximum event-time lateness, in months, a :class:`SalesTick` may
        trail the store's frontier and still be folded in.  ``None``
        (the default) accepts any in-timeline tick — the pre-watermark
        behaviour.  ``0`` accepts only frontier-month ticks.

    Notes
    -----
    * :class:`SalesTick` rows *accumulate* into the month cell, matching
      the database's scatter-add merge, so duplicate partial ticks for
      one shop-month behave like duplicate database rows.
    * Ticks fold by **event time**: an in-window late tick lands in the
      correct (older) month's cell, so folding a shuffled feed equals
      folding the in-order feed.  Beyond-watermark ticks are dropped
      exactly once and counted in :attr:`ticks_dropped`; they never
      touch the tables or the frontier.
    * A shop that has not been added yet is fully masked: its observed
      row is all-``False`` and its static row is zero apart from the
      neutral opening-age feature, so it is inert in any assembled
      window (the cold-start arrival path).

    >>> store = StreamingFeatureStore(2, num_months=6, watermark=1)
    >>> store.apply(SalesTick(month=3, shop_index=0, gmv=7.0))
    >>> store.apply(SalesTick(month=2, shop_index=1, gmv=5.0))  # in window
    >>> store.apply(SalesTick(month=0, shop_index=1, gmv=9.0))  # too late
    >>> store.frontier, store.ticks_dropped, float(store.gmv[1, 2])
    (3, 1, 5.0)
    """

    def __init__(self, num_shops: int, num_months: int,
                 watermark: Optional[int] = None) -> None:
        if num_shops < 0:
            raise ValueError(f"num_shops must be non-negative, got {num_shops}")
        if num_months <= 0:
            raise ValueError(f"num_months must be positive, got {num_months}")
        if watermark is not None and watermark < 0:
            raise ValueError(f"watermark must be non-negative, got {watermark}")
        self.num_months = int(num_months)
        self.num_shops = int(num_shops)
        self.watermark = None if watermark is None else int(watermark)
        self.gmv = np.zeros((num_shops, num_months), dtype=np.float64)
        self.orders = np.zeros((num_shops, num_months), dtype=np.int64)
        self.customers = np.zeros((num_shops, num_months), dtype=np.int64)
        #: Opening month per shop; ``num_months`` = not (yet) added.
        self.opened_month = np.full(num_shops, num_months, dtype=np.int64)
        self._industries: List[str] = [""] * num_shops
        self._regions: List[str] = [""] * num_shops
        self.events_applied = 0
        #: Event-time frontier: highest month an accepted tick belongs
        #: to (``-1`` before the first tick).
        self.frontier = -1
        #: Accepted ticks (monotone; doubles as the freshness sequence).
        self.ticks_applied = 0
        #: Accepted ticks that arrived behind the frontier (in-window
        #: late data merged into an older month's cell).
        self.late_ticks_accepted = 0
        #: Ticks dropped for trailing the frontier beyond ``watermark``.
        self.ticks_dropped = 0
        #: Per-shop sequence number (:attr:`ticks_applied` at the
        #: shop's latest accepted tick; ``0`` = never ticked).  The
        #: gateway's freshness checks compare cached-result stamps
        #: against this.
        self.last_tick_seq = np.zeros(num_shops, dtype=np.int64)
        #: ``(S, M)``: the cell received at least one accepted tick.
        #: Snapshot preloads write the tables directly and never set it,
        #: so it marks exactly the evidence the stream delivered.
        self.ticked = np.zeros((num_shops, num_months), dtype=bool)
        self._tick_listeners: List[Callable[[np.ndarray, int], None]] = []
        self._suppress_notify = False
        # Derived-block caches: window assembly happens every month-close
        # while most months change only a few cells, so the O(S*M)
        # temporal block and the Python-loop static block are rebuilt
        # only when their inputs actually moved.
        self._tick_version = 0
        self._shop_version = 0
        self._temporal_cache: Optional[tuple] = None
        self._static_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def _ensure_capacity(self, shop_index: int) -> None:
        if shop_index < 0:
            raise IndexError(
                f"shop index must be non-negative, got {shop_index}"
            )
        if shop_index < self.num_shops:
            return
        grow = shop_index + 1 - self.num_shops
        self.gmv = grow_rows(self.gmv, shop_index + 1)
        self.orders = grow_rows(self.orders, shop_index + 1)
        self.customers = grow_rows(self.customers, shop_index + 1)
        self.opened_month = grow_rows(self.opened_month, shop_index + 1,
                                      fill=self.num_months)
        self.last_tick_seq = grow_rows(self.last_tick_seq, shop_index + 1)
        self.ticked = grow_rows(self.ticked, shop_index + 1)
        self._industries.extend([""] * grow)
        self._regions.extend([""] * grow)
        self.num_shops = shop_index + 1
        self._tick_version += 1
        self._shop_version += 1

    def register_shop(self, shop_index: int, opened_month: int,
                      industry: str = "", region: str = "") -> None:
        """Mark a shop as present from ``opened_month`` on.

        Idempotent under duplicates (the earliest opening month wins);
        used both by :class:`ShopAdded` folding and snapshot preloads.
        """
        shop_index = int(shop_index)
        self._ensure_capacity(shop_index)
        self.opened_month[shop_index] = min(
            int(self.opened_month[shop_index]), int(opened_month)
        )
        if industry:
            self._industries[shop_index] = industry
        if region:
            self._regions[shop_index] = region
        self._shop_version += 1

    def admits_tick(self, month: int) -> bool:
        """Whether a tick for ``month`` is inside the watermark window.

        True while the tick trails the event-time frontier by at most
        ``watermark`` months (always true with an unbounded watermark or
        before the first tick).  :meth:`apply` drops a tick this refuses;
        the accepted ones are what :attr:`ticked` records.
        """
        if self.watermark is None or self.frontier < 0:
            return True
        return int(month) >= self.frontier - self.watermark

    def apply(self, event: ShopEvent) -> None:
        """Fold one event into the feature planes.

        Edge events are graph-plane only and are ignored here, so one
        log can be replayed through graph and features independently.
        :class:`SalesTick` events fold by event time: in-window late
        ticks merge into the month they belong to, beyond-watermark
        ticks are dropped and counted in :attr:`ticks_dropped`.
        """
        self.events_applied += 1
        if isinstance(event, ShopAdded):
            self.register_shop(event.shop_index, event.month,
                               event.industry, event.region)
        elif isinstance(event, SalesTick):
            if not 0 <= event.month < self.num_months:
                raise IndexError(
                    f"tick month {event.month} outside timeline "
                    f"[0, {self.num_months})"
                )
            if not self.admits_tick(event.month):
                self.ticks_dropped += 1
                return
            self._ensure_capacity(event.shop_index)
            self.gmv[event.shop_index, event.month] += float(event.gmv)
            self.orders[event.shop_index, event.month] += int(event.orders)
            self.customers[event.shop_index, event.month] += int(event.customers)
            self.ticked[event.shop_index, event.month] = True
            self._tick_version += 1
            self.ticks_applied += 1
            self.last_tick_seq[event.shop_index] = self.ticks_applied
            if event.month < self.frontier:
                self.late_ticks_accepted += 1
            else:
                self.frontier = int(event.month)
            if self._tick_listeners and not self._suppress_notify:
                self._notify_ticks(
                    np.array([event.shop_index], dtype=np.int64),
                    self.frontier,
                )

    def apply_events(self, events: Iterable[ShopEvent]) -> None:
        """Fold a batch of events in order.

        Tick listeners are notified **once** with the union of ticked
        shops and the final frontier instead of per event — the same
        coalescing contract as
        :meth:`~repro.streaming.dynamic_graph.DynamicGraph.apply_events`.
        """
        before = self.ticks_applied
        ticked: List[int] = []
        self._suppress_notify = True
        try:
            with obs_tracing.span("streaming.watermark_fold"):
                for event in events:
                    self.apply(event)
                    if isinstance(event, SalesTick) \
                            and self.ticks_applied > before:
                        before = self.ticks_applied
                        ticked.append(int(event.shop_index))
        finally:
            self._suppress_notify = False
            if ticked:
                self._notify_ticks(
                    np.unique(np.asarray(ticked, dtype=np.int64)),
                    self.frontier,
                )

    # ------------------------------------------------------------------
    # tick listeners (data-freshness subscribers)
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[np.ndarray, int], None]) -> None:
        """Register ``callback(ticked_shops, frontier)`` for accepted ticks.

        The serving gateway's freshness-aware result cache hangs off
        this: every accepted tick (never a dropped one) reports which
        shops received fresher data and where the event-time frontier
        now stands.
        """
        self._tick_listeners.append(callback)

    def unsubscribe(self, callback: Callable[[np.ndarray, int], None]) -> None:
        """Remove a previously registered tick callback."""
        self._tick_listeners.remove(callback)

    def _notify_ticks(self, shops: np.ndarray, frontier: int) -> None:
        if self._suppress_notify:
            return
        for callback in list(self._tick_listeners):
            callback(shops, frontier)

    @property
    def ticks_offered(self) -> int:
        """Every tick that reached the store, accepted or dropped."""
        return self.ticks_applied + self.ticks_dropped

    def drop_rate(self) -> float:
        """Lifetime fraction of offered ticks the watermark rejected.

        0.0 on a store that has seen no ticks — a silent stream is a
        lag problem (the streaming health probe's frontier check), not
        a drop problem.
        """
        offered = self.ticks_offered
        if offered == 0:
            return 0.0
        return self.ticks_dropped / offered

    def freshness_report(self) -> dict:
        """Serialisable snapshot of the store's event-time state."""
        return {
            "frontier": int(self.frontier),
            "watermark": self.watermark,
            "ticks_applied": int(self.ticks_applied),
            "late_ticks_accepted": int(self.late_ticks_accepted),
            "ticks_dropped": int(self.ticks_dropped),
            "drop_rate": self.drop_rate(),
        }

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Complete fold state, as copies (the checkpoint contract).

        Everything a cold process needs to continue the fold exactly
        where this store stands: the tables, the per-shop metadata, and
        the event-time accounting.  ``from_state(state_dict())`` is
        array-for-array identical to the original — the round trip the
        recovery property tests pin down.
        """
        return {
            "num_shops": int(self.num_shops),
            "num_months": int(self.num_months),
            "watermark": self.watermark,
            "gmv": self.gmv.copy(),
            "orders": self.orders.copy(),
            "customers": self.customers.copy(),
            "opened_month": self.opened_month.copy(),
            "last_tick_seq": self.last_tick_seq.copy(),
            "ticked": self.ticked.copy(),
            "industries": list(self._industries),
            "regions": list(self._regions),
            "events_applied": int(self.events_applied),
            "frontier": int(self.frontier),
            "ticks_applied": int(self.ticks_applied),
            "late_ticks_accepted": int(self.late_ticks_accepted),
            "ticks_dropped": int(self.ticks_dropped),
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamingFeatureStore":
        """Rebuild a store from :meth:`state_dict` output.

        The restored store has no subscribers and cold caches — exactly
        what a fresh process should hold before consumers re-attach.
        """
        store = cls(int(state["num_shops"]), int(state["num_months"]),
                    watermark=state["watermark"])
        store.gmv = np.array(state["gmv"], dtype=np.float64)
        store.orders = np.array(state["orders"], dtype=np.int64)
        store.customers = np.array(state["customers"], dtype=np.int64)
        store.opened_month = np.array(state["opened_month"], dtype=np.int64)
        store.last_tick_seq = np.array(state["last_tick_seq"], dtype=np.int64)
        store.ticked = np.array(state["ticked"], dtype=bool)
        store._industries = [str(name) for name in state["industries"]]
        store._regions = [str(name) for name in state["regions"]]
        store.events_applied = int(state["events_applied"])
        store.frontier = int(state["frontier"])
        store.ticks_applied = int(state["ticks_applied"])
        store.late_ticks_accepted = int(state["late_ticks_accepted"])
        store.ticks_dropped = int(state["ticks_dropped"])
        return store

    # ------------------------------------------------------------------
    # extractor-equivalent views
    # ------------------------------------------------------------------
    def observed(self) -> np.ndarray:
        """Boolean ``(S, M)`` mask, true from each shop's opening month on."""
        months = np.arange(self.num_months)
        return months[None, :] >= self.opened_month[:, None]

    def temporal_features(self) -> np.ndarray:
        """``(S, M, 4)`` block: :func:`~repro.data.extractors.temporal_block`.

        Cached until the next sales tick (or capacity growth); treat the
        returned array as read-only.
        """
        if self._temporal_cache is not None \
                and self._temporal_cache[0] == self._tick_version:
            return self._temporal_cache[1]
        features = temporal_block(0, self.orders, self.customers)
        self._temporal_cache = (self._tick_version, features)
        return features

    def static_features(self) -> np.ndarray:
        """``(S, DS)`` block: :func:`~repro.data.extractors.static_block`.

        Cached until the next shop registration (or capacity growth);
        treat the returned array as read-only.
        """
        if self._static_cache is not None \
                and self._static_cache[0] == self._shop_version:
            return self._static_cache[1]
        features = static_block(self._industries, self._regions,
                                self.opened_month, self.num_months)
        self._static_cache = (self._shop_version, features)
        return features

    def history_lengths(self, cutoff: int) -> np.ndarray:
        """Observed history per shop at ``cutoff`` (0 for unseen shops)."""
        return np.clip(cutoff - self.opened_month, 0, None)

    def new_shop_mask(self, cutoff: int, threshold: int = 10) -> np.ndarray:
        """Paper's "New Shop Group" from live state: history < threshold."""
        return self.history_lengths(cutoff) < threshold

    # ------------------------------------------------------------------
    # window assembly
    # ------------------------------------------------------------------
    def instance_batch(
        self,
        cutoff: int,
        input_window: int,
        horizon: int,
        scaler: ShopLevelScaler,
        temporal_scaler: StandardScaler,
        static: Optional[np.ndarray] = None,
    ) -> InstanceBatch:
        """Assemble the window batch at ``cutoff`` from live tables.

        Identical to the offline
        :func:`~repro.data.dataset.make_instance_batch` on a cold
        rebuild of the same event history (the ``scaler`` pair is the
        deployed snapshot's — frozen at publish time, exactly like the
        production system's feature scalers).  ``static`` overrides the
        event-derived static block for deployments whose static features
        come from the batch snapshot instead of the stream.
        """
        if cutoff < 1:
            raise ValueError(f"cutoff {cutoff} leaves no input history")
        if cutoff < input_window:
            raise ValueError(
                f"cutoff {cutoff} is shorter than the input window "
                f"{input_window}; the streaming window path never "
                "zero-pads history"
            )
        if cutoff + horizon > self.num_months:
            raise ValueError("cutoff + horizon exceeds the timeline")
        return make_instance_batch(
            self.gmv,
            self.observed(),
            self.temporal_features(),
            static if static is not None else self.static_features(),
            cutoff,
            input_window,
            horizon,
            scaler,
            temporal_scaler,
        )
