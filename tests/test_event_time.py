"""Event-time streaming correctness: watermarks, late arrivals,
compaction.

The claims under test:

* **Watermark fold equivalence** — any event log shuffled within the
  watermark folds to feature tables (and compacted graphs) *identical*
  to the in-order fold; in-window late ticks merge into the month they
  belong to.
* **Exact drop accounting** — beyond-watermark ticks are dropped
  exactly once, never folded, and surfaced in the store's counters.
* **Compaction** — after any mix of manual and automatic
  ``DynamicGraph.compact()`` calls, with queries in between, the
  compacted base's edge arrays and its lazily sorted CSR planes are
  array-identical to ``ESellerGraph.from_edit_history`` plus a stable
  sort of the same history.
* **Late-arrival simulation** — ``MarketplaceSimulator`` can delay tick
  arrivals without changing the event-time fold.
"""

import numpy as np
import pytest

from repro.data import MarketplaceConfig, build_marketplace
from repro.graph import ESellerGraph
from repro.streaming import (
    DynamicGraph,
    EdgeAdded,
    EdgeRetired,
    EventLog,
    MarketplaceSimulator,
    SalesTick,
    ShopAdded,
    StreamingFeatureStore,
    edge_history,
)

from helpers import forall, random_eseller_graph

pytestmark = pytest.mark.streaming

TRIALS = 40


@pytest.fixture(scope="module")
def market():
    return build_marketplace(MarketplaceConfig(num_shops=30, seed=31))


# ----------------------------------------------------------------------
# event log: event time vs arrival time
# ----------------------------------------------------------------------
class TestEventLogEventTime:
    def test_store_owns_event_time(self):
        """The log records arrival order and nothing else; the frontier
        and the late count are the feature store's, over accepted ticks."""
        events = [SalesTick(month=4, shop_index=0, gmv=1.0),
                  SalesTick(month=2, shop_index=1, gmv=2.0),   # late
                  SalesTick(month=4, shop_index=2, gmv=3.0),   # on frontier
                  ShopAdded(month=6, shop_index=3)]
        log = EventLog(events)
        assert list(log) == events
        assert not hasattr(log, "frontier")
        store = StreamingFeatureStore(4, num_months=8)
        store.apply_events(log)
        assert store.frontier == 4              # shop arrivals are no ticks
        assert store.late_ticks_accepted == 1

    def test_by_event_time_is_stable(self):
        first = SalesTick(month=1, shop_index=0, gmv=1.0)
        second = SalesTick(month=1, shop_index=0, gmv=2.0)
        log = EventLog([SalesTick(month=3, shop_index=1, gmv=9.0),
                        first, second])
        ordered = log.by_event_time()
        assert [e.month for e in ordered] == [1, 1, 3]
        # Stable: same-month events keep arrival order.
        assert ordered[0] is first and ordered[1] is second
        # The log itself is never reordered.
        assert list(log)[0].month == 3


# ----------------------------------------------------------------------
# feature store: watermark admission
# ----------------------------------------------------------------------
class TestWatermarkAdmission:
    def test_in_window_late_tick_lands_in_its_month(self):
        store = StreamingFeatureStore(3, 10, watermark=2)
        store.apply(SalesTick(month=5, shop_index=0, gmv=10.0, orders=2,
                              customers=1))
        store.apply(SalesTick(month=3, shop_index=1, gmv=4.0, orders=1,
                              customers=1))
        assert store.gmv[1, 3] == 4.0           # event month, not arrival
        assert store.frontier == 5              # late data never rewinds it
        assert store.late_ticks_accepted == 1
        assert store.ticks_dropped == 0

    def test_beyond_watermark_dropped_exactly_once(self):
        store = StreamingFeatureStore(3, 10, watermark=1)
        store.apply(SalesTick(month=6, shop_index=0, gmv=1.0))
        straggler = SalesTick(month=2, shop_index=1, gmv=99.0, orders=7,
                              customers=7)
        before = store.gmv.copy()
        store.apply(straggler)
        assert store.ticks_dropped == 1
        assert store.ticks_applied == 1         # never folded
        np.testing.assert_array_equal(store.gmv, before)
        assert store.orders[1, 2] == 0 and store.customers[1, 2] == 0
        # A dropped tick leaves the freshness sequence untouched too.
        assert store.last_tick_seq[1] == 0

    def test_unbounded_watermark_accepts_everything(self):
        store = StreamingFeatureStore(2, 10)
        store.apply(SalesTick(month=9, shop_index=0, gmv=1.0))
        store.apply(SalesTick(month=0, shop_index=1, gmv=2.0))
        assert store.ticks_dropped == 0
        assert store.gmv[1, 0] == 2.0
        assert store.admits_tick(0)

    def test_watermark_zero_accepts_only_frontier(self):
        store = StreamingFeatureStore(2, 10, watermark=0)
        store.apply(SalesTick(month=3, shop_index=0, gmv=1.0))
        store.apply(SalesTick(month=3, shop_index=1, gmv=1.0))  # same month ok
        store.apply(SalesTick(month=2, shop_index=1, gmv=1.0))  # dropped
        assert store.ticks_dropped == 1 and store.ticks_applied == 2

    def test_invalid_watermark_rejected(self):
        with pytest.raises(ValueError):
            StreamingFeatureStore(2, 10, watermark=-1)

    def test_tick_listeners_and_coalescing(self):
        store = StreamingFeatureStore(4, 10, watermark=1)
        calls = []
        store.subscribe(lambda shops, frontier:
                        calls.append((shops.tolist(), frontier)))
        store.apply(SalesTick(month=4, shop_index=2, gmv=1.0))
        assert calls == [([2], 4)]
        store.apply_events([
            SalesTick(month=5, shop_index=0, gmv=1.0),
            SalesTick(month=5, shop_index=3, gmv=1.0),
            SalesTick(month=1, shop_index=1, gmv=1.0),   # dropped: no notify
            ShopAdded(month=5, shop_index=1),
        ])
        assert calls[1:] == [([0, 3], 5)]                # one coalesced call
        store.unsubscribe(store._tick_listeners[0])
        store.apply(SalesTick(month=6, shop_index=0, gmv=1.0))
        assert len(calls) == 2

    def test_freshness_report_shape(self):
        store = StreamingFeatureStore(2, 10, watermark=2)
        report = store.freshness_report()
        assert report == {"frontier": -1, "watermark": 2, "ticks_applied": 0,
                          "late_ticks_accepted": 0, "ticks_dropped": 0,
                          "drop_rate": 0.0}


# ----------------------------------------------------------------------
# the watermark fold-equivalence property
# ----------------------------------------------------------------------
def _random_event_time_log(rng):
    """An in-order mixed log plus a within-watermark arrival shuffle.

    Ticks targeting the same (shop, month) cell share one delay, so the
    shuffle can never reorder same-cell partials (their accumulation
    order — hence the float sum — is part of the fold contract).
    """
    num_shops = int(rng.integers(3, 8))
    num_months = int(rng.integers(6, 12))
    watermark = int(rng.integers(1, 4))
    in_order = []
    for month in range(num_months):
        for shop in range(num_shops):
            if rng.random() < 0.25:
                in_order.append(ShopAdded(
                    month=month, shop_index=shop,
                    industry="", region="",
                ))
            for _ in range(int(rng.integers(0, 3))):
                in_order.append(SalesTick(
                    month=month, shop_index=shop,
                    gmv=float(rng.random() * 100),
                    orders=int(rng.integers(0, 5)),
                    customers=int(rng.integers(0, 5)),
                ))
    cell_delay = {}
    keyed = []
    for position, event in enumerate(in_order):
        delay = 0
        if isinstance(event, SalesTick):
            cell = (event.shop_index, event.month)
            if cell not in cell_delay:
                cell_delay[cell] = int(rng.integers(0, watermark + 1))
            delay = cell_delay[cell]
        keyed.append((event.month + delay, position, event))
    shuffled = [event for _, _, event in sorted(keyed, key=lambda k: k[:2])]
    return num_shops, num_months, watermark, in_order, shuffled


def check_shuffled_fold_matches_in_order(case):
    num_shops, num_months, watermark, in_order, shuffled = case
    ordered = StreamingFeatureStore(num_shops, num_months,
                                    watermark=watermark)
    ordered.apply_events(in_order)
    replayed = StreamingFeatureStore(num_shops, num_months,
                                     watermark=watermark)
    replayed.apply_events(shuffled)
    # Nothing inside the watermark may be dropped...
    assert replayed.ticks_dropped == 0
    assert replayed.ticks_applied == ordered.ticks_applied
    # ...and the fold is bit-identical to the in-order replay.
    np.testing.assert_array_equal(replayed.gmv, ordered.gmv)
    np.testing.assert_array_equal(replayed.orders, ordered.orders)
    np.testing.assert_array_equal(replayed.customers, ordered.customers)
    np.testing.assert_array_equal(replayed.opened_month, ordered.opened_month)
    np.testing.assert_array_equal(replayed.observed(), ordered.observed())
    np.testing.assert_array_equal(replayed.temporal_features(),
                                  ordered.temporal_features())
    np.testing.assert_array_equal(replayed.static_features(),
                                  ordered.static_features())
    assert replayed.frontier == ordered.frontier


class TestWatermarkFoldProperty:
    def test_shuffled_within_watermark_folds_identically(self):
        forall(_random_event_time_log, check_shuffled_fold_matches_in_order,
               trials=TRIALS, seed=11,
               name="within-watermark shuffle folds == in-order fold")

    def test_by_event_time_fold_matches_in_order(self):
        """EventLog.by_event_time() is itself a valid in-order replay."""
        def check(case):
            num_shops, num_months, watermark, in_order, shuffled = case
            log = EventLog(shuffled)
            ordered = StreamingFeatureStore(num_shops, num_months)
            ordered.apply_events(in_order)
            resorted = StreamingFeatureStore(num_shops, num_months)
            resorted.apply_events(log.by_event_time())
            np.testing.assert_array_equal(resorted.gmv, ordered.gmv)
            np.testing.assert_array_equal(resorted.orders, ordered.orders)

        forall(_random_event_time_log, check, trials=10, seed=13,
               name="by_event_time replay == in-order fold")


# ----------------------------------------------------------------------
# compaction
# ----------------------------------------------------------------------
def _random_mutations(rng, base):
    """Valid add/retire/shop sequence against ``base`` (tick-free)."""
    live = [
        (int(base.src[e]), int(base.dst[e]), int(base.edge_types[e]))
        for e in range(base.num_edges)
    ]
    num_nodes = base.num_nodes
    events = []
    for _ in range(int(rng.integers(1, 50))):
        kind = rng.random()
        if kind < 0.12:
            num_nodes += 1
            events.append(ShopAdded(month=0, shop_index=num_nodes - 1))
        elif kind < 0.5 and live:
            key = live.pop(int(rng.integers(0, len(live))))
            events.append(EdgeRetired(month=0, src=key[0], dst=key[1],
                                      edge_type=key[2]))
        else:
            key = (int(rng.integers(0, num_nodes)),
                   int(rng.integers(0, num_nodes)),
                   int(rng.integers(0, 3)))
            live.append(key)
            events.append(EdgeAdded(month=0, src=key[0], dst=key[1],
                                    edge_type=key[2]))
    return events


def _assert_cold_fold(graph, events, base):
    """``graph`` equals ``from_edit_history`` over ``events`` applied to
    ``base``, and its lazily built CSR planes equal a stable sort."""
    history = edge_history(events, base=base)
    cold = ESellerGraph.from_edit_history(
        history.num_nodes, history.src, history.dst,
        history.edge_types, history.alive,
    )
    assert graph.num_nodes == cold.num_nodes
    np.testing.assert_array_equal(graph.src, cold.src)
    np.testing.assert_array_equal(graph.dst, cold.dst)
    np.testing.assert_array_equal(graph.edge_types, cold.edge_types)
    for view, key in ((graph.out_csr(), cold.src), (graph.in_csr(), cold.dst)):
        indptr = np.concatenate([
            [0], np.cumsum(np.bincount(key, minlength=cold.num_nodes))
        ])
        np.testing.assert_array_equal(view[0], indptr)
        np.testing.assert_array_equal(view[1], np.argsort(key, kind="stable"))


def check_compaction_equals_cold_fold(case):
    """Replay ``events`` with manual compactions and queries in between
    (plus auto-compactions when ``threshold`` is set); every compacted
    base equals the cold fold of the prefix it has seen."""
    base, events, threshold, compact_at, query_at = case
    dyn = DynamicGraph(base, compact_threshold=threshold,
                       min_compact_edges=8)
    for step, event in enumerate(events):
        dyn.apply(event)
        if step in query_at:
            # Builds the current base's CSR planes before the next fold.
            history = edge_history(events[:step + 1], base=base)
            cold = ESellerGraph.from_edit_history(
                history.num_nodes, history.src, history.dst,
                history.edge_types, history.alive,
            )
            # Positions count tombstones until the next fold, so each
            # node's edges are compared in position order, not by value.
            nodes = np.arange(dyn.num_nodes, dtype=np.int64)
            for out in (True, False):
                origin, position, other, types = dyn.incident_edges(nodes, out)
                rank = np.lexsort((position, origin))
                ref = cold.incident_edges(nodes, out)
                np.testing.assert_array_equal(origin[rank], ref[0])
                np.testing.assert_array_equal(other[rank], ref[2])
                np.testing.assert_array_equal(types[rank], ref[3])
        if step in compact_at:
            _assert_cold_fold(dyn.compact(), events[:step + 1], base)
    _assert_cold_fold(dyn.compact(), events, base)


class TestCompaction:
    def test_compacted_graph_equals_cold_fold(self):
        def gen(rng):
            base = random_eseller_graph(rng, max_nodes=12, max_edges=25)
            events = _random_mutations(rng, base)
            # None = manual compactions only; 0.3 = auto-compactions
            # interleaved with the manual ones.
            threshold = None if rng.random() < 0.5 else 0.3
            compact_at = set(np.flatnonzero(rng.random(len(events)) < 0.15))
            query_at = set(np.flatnonzero(rng.random(len(events)) < 0.3))
            return base, events, threshold, compact_at, query_at

        forall(gen, check_compaction_equals_cold_fold, trials=TRIALS,
               seed=17, name="compacted graph == cold fold + stable sort")

    def test_compacted_base_sorts_its_index_lazily(self):
        base = ESellerGraph(4, [0, 1, 2], [1, 2, 3], [0, 0, 0])
        base.out_csr()
        base.in_csr()
        dyn = DynamicGraph(base, compact_threshold=None)
        dyn.add_edge(3, 0, 1)
        dyn.retire_edge(1, 2)
        compacted = dyn.compact()
        assert compacted._csr is None and compacted._csr_in is None
        np.testing.assert_array_equal(compacted.out_edges(3), [2])
        np.testing.assert_array_equal(compacted.in_edges(0), [2])


# ----------------------------------------------------------------------
# simulator late-arrival injection
# ----------------------------------------------------------------------
class TestSimulatorLateArrivals:
    def test_injection_is_deterministic_and_bounded(self, market):
        kwargs = dict(start_month=20, late_tick_fraction=0.3,
                      late_tick_max_delay=2, seed=9)
        a = MarketplaceSimulator(market, **kwargs)
        b = MarketplaceSimulator(market, **kwargs)
        assert list(a.event_log()) == list(b.event_log())
        assert a.late_ticks_injected > 0
        last = a.num_months - 1
        for month in a.streaming_months:
            for event in a.events_for_month(month):
                if isinstance(event, SalesTick):
                    lag = month - event.month
                    assert 0 <= lag <= 2 or month == last

    def test_event_time_fold_unchanged_by_late_arrival(self, market):
        in_order = MarketplaceSimulator(market, start_month=20, seed=9)
        late = MarketplaceSimulator(market, start_month=20,
                                    late_tick_fraction=0.4,
                                    late_tick_max_delay=2, seed=9)
        store_a = in_order.initial_store()
        store_a.apply_events(in_order.event_log())
        store_b = late.initial_store()
        store_b.apply_events(late.event_log())
        np.testing.assert_array_equal(store_a.gmv, store_b.gmv)
        np.testing.assert_array_equal(store_a.orders, store_b.orders)
        np.testing.assert_array_equal(store_a.customers, store_b.customers)
        assert store_b.late_ticks_accepted >= late.late_ticks_injected > 0
        assert store_b.ticks_dropped == 0

    def test_finite_watermark_drops_stragglers_exactly_once(self, market):
        late = MarketplaceSimulator(market, start_month=20,
                                    late_tick_fraction=0.4,
                                    late_tick_max_delay=3, seed=9)
        store = late.initial_store(watermark=1)
        reference = late.initial_store()      # unbounded twin
        expected_drops = 0
        for month in late.streaming_months:
            for event in late.events_for_month(month):
                reference.apply(event)
                if isinstance(event, SalesTick) \
                        and not store.admits_tick(event.month):
                    expected_drops += 1
                store.apply(event)
        assert store.ticks_dropped == expected_drops > 0
        assert store.ticks_applied + store.ticks_dropped == \
            reference.ticks_applied
        # Dropped cells stayed at their snapshot value (0 for streamed
        # months), everything else matches the unbounded fold.
        mismatch = store.gmv != reference.gmv
        assert mismatch.sum() <= expected_drops
        assert np.all(store.gmv[mismatch] == 0.0)

    def test_late_fraction_validation(self, market):
        with pytest.raises(ValueError):
            MarketplaceSimulator(market, start_month=20,
                                 late_tick_fraction=1.5)
        with pytest.raises(ValueError):
            MarketplaceSimulator(market, start_month=20,
                                 late_tick_fraction=0.1,
                                 late_tick_max_delay=0)

    def test_initial_store_seeds_frontier(self, market):
        simulator = MarketplaceSimulator(market, start_month=20, seed=9)
        store = simulator.initial_store(watermark=2)
        assert store.frontier == 19
        assert store.watermark == 2
        # A tick far behind the deployment snapshot is already late.
        assert not store.admits_tick(5)
