"""Churn-driving marketplace simulator: a synthetic world as an event stream.

:class:`MarketplaceSimulator` splits a fully materialised
:class:`~repro.data.synthetic.SyntheticMarketplace` at a deployment
month: everything before it is the *snapshot* (the graph and feature
tables the offline pipeline trained on), and everything after streams
as :class:`~repro.streaming.events.ShopEvent` records — cold-start shop
arrivals, supply-chain/ownership edges revealed as both endpoints come
online, monthly sales ticks drawn from the marketplace database, and
(optionally) edge churn: revealed edges retired for a few months and
then re-added, exercising tombstones and delta invalidation.

Out-of-order arrival: with ``late_tick_fraction > 0`` a deterministic
subset of sales ticks is *delayed* — each keeps its event month but
arrives one to ``late_tick_max_delay`` months later, modelling the
partial-settlement feeds a real marketplace ingests.  Event-time folds
are unaffected (ticks land in the month they belong to), which is
exactly what the watermark property tests pin down; consumers with a
finite watermark will drop the stragglers that trail too far.

Determinism: the entire stream is precomputed at construction from
``(market, start_month, seed)``, so replaying a simulator — or any
prefix of its log — is exactly reproducible.  Churned edges are always
re-added by the final month, so a full replay reconciles with the
marketplace's own graph (same live-edge multiset) and its database
tables (same GMV / activity numbers), which is what the equivalence
tests pin down.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.extractors import ESellerGraphBuilder
from ..data.synthetic import SyntheticMarketplace
from ..graph.graph import ESellerGraph
from .dynamic_graph import DynamicGraph
from .events import EdgeAdded, EdgeRetired, EventLog, SalesTick, ShopAdded, ShopEvent
from .features import StreamingFeatureStore

__all__ = ["MarketplaceSimulator"]


class MarketplaceSimulator:
    """Stream a synthetic marketplace's evolution after a deployment month.

    Parameters
    ----------
    market:
        The ground-truth world (its database supplies sales numbers and
        the mined relation graph).
    start_month:
        First streaming month.  Months ``< start_month`` form the
        deployed snapshot served by :meth:`initial_graph` /
        :meth:`initial_store`.
    edge_churn_per_month:
        How many live revealed edges to retire each streaming month
        (re-added ``churn_rebound_months`` later; everything still
        retired at the end of the timeline is re-added in the final
        month so full replays reconcile with the marketplace graph).
    late_tick_fraction:
        Fraction of sales ticks whose *arrival* is delayed past their
        event month (uniformly 1..``late_tick_max_delay`` months,
        clamped to the timeline).  ``0`` keeps the fully in-order feed.
    late_tick_max_delay:
        Upper bound on the arrival delay of a late tick, in months.
    seed:
        Drives churn-edge selection and late-tick delays only; the
        organic arrival stream is fully determined by the marketplace
        itself.
    """

    def __init__(
        self,
        market: SyntheticMarketplace,
        start_month: int,
        edge_churn_per_month: int = 0,
        churn_rebound_months: int = 2,
        late_tick_fraction: float = 0.0,
        late_tick_max_delay: int = 1,
        seed: int = 0,
    ) -> None:
        months = market.config.num_months
        if not 0 < start_month < months:
            raise ValueError(
                f"start_month must be inside the timeline (0, {months}), "
                f"got {start_month}"
            )
        if edge_churn_per_month < 0:
            raise ValueError("edge_churn_per_month must be non-negative")
        if churn_rebound_months < 1:
            raise ValueError("churn_rebound_months must be >= 1")
        if not 0.0 <= late_tick_fraction <= 1.0:
            raise ValueError(
                f"late_tick_fraction must be in [0, 1], got {late_tick_fraction}"
            )
        if late_tick_max_delay < 1:
            raise ValueError("late_tick_max_delay must be >= 1")
        self.market = market
        self.start_month = int(start_month)
        self.num_months = months
        self.num_shops = market.config.num_shops
        self.opened = np.asarray(market.opened_month, dtype=np.int64)
        self.gmv_table, self.orders_table, self.customers_table = (
            market.database.monthly_activity_table(0, months)
        )
        # The message graph the serving stack actually consumes
        # (bidirectional, deduplicated) — edge events stream over it.
        self.final_graph = ESellerGraphBuilder(market.database).build(
            bidirectional=True
        )
        self.reveal_month = np.maximum(
            self.opened[self.final_graph.src], self.opened[self.final_graph.dst]
        )
        self._events_by_month: Dict[int, List[ShopEvent]] = {
            m: [] for m in range(self.start_month, months)
        }
        #: Sales ticks whose arrival was delayed past their event month.
        self.late_ticks_injected = 0
        rng = np.random.default_rng(seed)
        self._precompute(edge_churn_per_month, churn_rebound_months, rng)
        if late_tick_fraction > 0.0:
            self._inject_late_ticks(late_tick_fraction,
                                    late_tick_max_delay, rng)

    # ------------------------------------------------------------------
    # stream construction (all at init time, fully deterministic)
    # ------------------------------------------------------------------
    def _precompute(self, churn: int, rebound: int,
                    rng: np.random.Generator) -> None:
        shops = self.market.database.shops()
        graph = self.final_graph
        live: List[Tuple[int, int, int]] = [
            (int(graph.src[e]), int(graph.dst[e]), int(graph.edge_types[e]))
            for e in range(graph.num_edges)
            if self.reveal_month[e] < self.start_month
        ]
        live_set = set(live)
        pending: Dict[int, List[Tuple[int, int, int]]] = {}
        last = self.num_months - 1
        for month in range(self.start_month, self.num_months):
            out = self._events_by_month[month]
            # 1. Re-adds of previously churned edges land first, so a
            #    month never observes the same key retired twice in a row.
            for key in pending.pop(month, []):
                out.append(EdgeAdded(month=month, src=key[0], dst=key[1],
                                     edge_type=key[2]))
                live_set.add(key)
            # 2. Cold-start arrivals.
            for shop_index in np.flatnonzero(self.opened == month):
                record = shops[int(shop_index)]
                out.append(ShopAdded(
                    month=month,
                    shop_index=int(shop_index),
                    industry=record.industry,
                    region=record.region,
                ))
            # 3. Organic edge reveals (both endpoints now online).
            for e in np.flatnonzero(self.reveal_month == month):
                key = (int(graph.src[e]), int(graph.dst[e]),
                       int(graph.edge_types[e]))
                out.append(EdgeAdded(month=month, src=key[0], dst=key[1],
                                     edge_type=key[2]))
                live_set.add(key)
            # 4. Churn: retire a few live edges, rebound them later.
            if churn and month < last:
                candidates = sorted(live_set)
                take = min(churn, len(candidates))
                if take:
                    picks = rng.choice(len(candidates), size=take,
                                       replace=False)
                    for index in np.sort(picks):
                        key = candidates[int(index)]
                        out.append(EdgeRetired(
                            month=month, src=key[0], dst=key[1],
                            edge_type=key[2],
                        ))
                        live_set.discard(key)
                        pending.setdefault(min(month + rebound, last),
                                           []).append(key)
            # 5. Sales ticks from the database's activity tables.
            active = np.flatnonzero(
                (self.gmv_table[:, month] > 0)
                | (self.orders_table[:, month] > 0)
                | (self.customers_table[:, month] > 0)
            )
            for shop_index in active:
                out.append(SalesTick(
                    month=month,
                    shop_index=int(shop_index),
                    gmv=float(self.gmv_table[shop_index, month]),
                    orders=int(self.orders_table[shop_index, month]),
                    customers=int(self.customers_table[shop_index, month]),
                ))

    def _inject_late_ticks(self, fraction: float, max_delay: int,
                           rng: np.random.Generator) -> None:
        """Delay a deterministic subset of ticks past their event month.

        A picked tick keeps its event-time ``month`` but is moved to a
        later month's arrival batch (appended after that month's organic
        events), so the feed is out of order while the event-time fold
        stays identical.  Delays clamp to the final month; the organic
        feed emits at most one tick per shop-month cell, so delaying
        cannot reorder same-cell partials.
        """
        last = self.num_months - 1
        for month in range(self.start_month, last):
            batch = self._events_by_month[month]
            kept: List[ShopEvent] = []
            for event in batch:
                # Only organic ticks are eligible (event.month == batch
                # month): an already-delayed tick must not be re-picked
                # and pushed beyond the documented max_delay bound.
                if isinstance(event, SalesTick) and event.month == month \
                        and rng.random() < fraction:
                    delay = int(rng.integers(1, max_delay + 1))
                    arrival = min(month + delay, last)
                    self._events_by_month[arrival].append(event)
                    self.late_ticks_injected += 1
                else:
                    kept.append(event)
            self._events_by_month[month] = kept

    # ------------------------------------------------------------------
    # deployed snapshot
    # ------------------------------------------------------------------
    def initial_graph(self) -> ESellerGraph:
        """The snapshot graph: edges revealed before ``start_month``.

        Node space covers every shop (slots are pre-allocated; arrivals
        activate them), so batches built on the final marketplace stay
        index-aligned throughout the stream.
        """
        return ESellerGraph.from_edit_history(
            self.num_shops,
            self.final_graph.src,
            self.final_graph.dst,
            self.final_graph.edge_types,
            self.reveal_month < self.start_month,
        )

    def initial_dynamic_graph(self, **kwargs) -> DynamicGraph:
        """A :class:`DynamicGraph` over the snapshot, ready for replay."""
        return DynamicGraph(self.initial_graph(), **kwargs)

    def initial_store(self, watermark: Optional[int] = None) -> StreamingFeatureStore:
        """Feature store preloaded with the pre-deployment months.

        ``watermark`` configures the store's event-time admission window
        (see :class:`~repro.streaming.features.StreamingFeatureStore`);
        the event-time frontier starts at the last snapshot month, so the
        watermark applies from the first streamed tick on.
        """
        store = StreamingFeatureStore(self.num_shops, self.num_months,
                                      watermark=watermark)
        shops = self.market.database.shops()
        for shop_index in np.flatnonzero(self.opened < self.start_month):
            record = shops[int(shop_index)]
            store.register_shop(int(shop_index), int(self.opened[shop_index]),
                                record.industry, record.region)
        cols = slice(0, self.start_month)
        store.gmv[:, cols] = self.gmv_table[:, cols]
        store.orders[:, cols] = self.orders_table[:, cols]
        store.customers[:, cols] = self.customers_table[:, cols]
        store.frontier = self.start_month - 1
        return store

    # ------------------------------------------------------------------
    # the stream
    # ------------------------------------------------------------------
    @property
    def streaming_months(self) -> range:
        """Months that stream events (``start_month .. num_months - 1``)."""
        return range(self.start_month, self.num_months)

    def events_for_month(self, month: int) -> List[ShopEvent]:
        """The month's events: rebounds, arrivals, reveals, churn, ticks."""
        if month not in self._events_by_month:
            raise KeyError(
                f"month {month} outside the streaming window "
                f"[{self.start_month}, {self.num_months})"
            )
        return list(self._events_by_month[month])

    def event_log(self) -> EventLog:
        """The full deterministic stream as one replayable log."""
        log = EventLog()
        for month in self.streaming_months:
            log.extend(self._events_by_month[month])
        return log
