"""Tests for the streaming subsystem (``repro.streaming``).

The load-bearing guarantee is *equivalence*: replaying any event log
through the delta overlay (:class:`DynamicGraph`) and the feature store
must be indistinguishable — graph queries, compacted arrays, assembled
windows, gateway forecasts — from a cold rebuild of the final state.
The property-based suite throws random event sequences (with
interleaved compactions) at that claim via the ``tests.helpers.forall``
harness; the integration tests drive the full simulator → dynamic
graph → delta-aware gateway → online adapter chain.
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core import Gaia, GaiaConfig
from repro.data import MarketplaceConfig, build_dataset, build_marketplace
from repro.data.dataset import make_instance_batch
from repro.deploy import ModelRegistry
from repro.graph import ESellerGraph, ego_subgraph, k_hop_nodes
from repro.graph.sampling import receptive_layout
from repro.obs import MetricsHub, Tracer, series_values, use_tracer
from repro.obs import tracing as obs_tracing
from repro.serving import GatewayConfig, LRUCache, ServingGateway
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
from repro.training import OnlineAdapter, OnlineAdapterConfig

from helpers import forall, random_eseller_graph, scan_evicts

pytestmark = pytest.mark.streaming

TRIALS = 40


# ----------------------------------------------------------------------
# shared fixtures: one streaming marketplace world
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def market():
    return build_marketplace(MarketplaceConfig(num_shops=50, seed=23))


@pytest.fixture(scope="module")
def dataset(market):
    return build_dataset(market, train_fraction=0.6, val_fraction=0.2)


@pytest.fixture(scope="module")
def gaia_config(dataset):
    return GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
        channels=8,
        num_scales=2,
        num_layers=1,
    )


@pytest.fixture(scope="module")
def factory(gaia_config):
    return lambda: Gaia(gaia_config, seed=0)


@pytest.fixture(scope="module")
def registry(factory):
    registry = ModelRegistry()
    registry.publish(factory(), trained_at_month=28)
    return registry


@pytest.fixture(scope="module")
def simulator(market):
    return MarketplaceSimulator(market, start_month=22,
                                edge_churn_per_month=2, seed=5)


# ----------------------------------------------------------------------
# event log
# ----------------------------------------------------------------------
class TestEventLog:
    def test_append_iterate_slice(self):
        log = EventLog()
        log.append(ShopAdded(month=3, shop_index=0))
        log.extend([
            EdgeAdded(month=3, src=0, dst=0),
            SalesTick(month=4, shop_index=0, gmv=10.0, orders=1, customers=1),
        ])
        assert len(log) == 3 and log.high_water == 3
        assert [type(e).__name__ for e in log.month_slice(3)] == [
            "ShopAdded", "EdgeAdded"
        ]
        assert log.since(1) == list(log)[1:]
        assert Counter(type(e).__name__ for e in log) == {
            "ShopAdded": 1, "EdgeAdded": 1, "SalesTick": 1}

    def test_rejects_non_events(self):
        with pytest.raises(TypeError):
            EventLog().append("not an event")

    def test_edge_history_retires_lifo_and_validates(self):
        events = [
            EdgeAdded(month=0, src=0, dst=1),
            EdgeAdded(month=0, src=0, dst=1),
            EdgeRetired(month=1, src=0, dst=1),
        ]
        history = edge_history(events, num_nodes=2)
        # LIFO: the second copy is tombstoned, the first survives.
        assert history.alive.tolist() == [True, False]
        with pytest.raises(LookupError):
            edge_history(events + [EdgeRetired(month=2, src=1, dst=0)],
                         num_nodes=2)
        with pytest.raises(IndexError):
            edge_history([EdgeAdded(month=0, src=5, dst=0)], num_nodes=2)

    def test_edge_history_rejects_bad_indices(self):
        # Negative shop indices used to flow through edge_history
        # silently and only blow up later, deep inside
        # StreamingFeatureStore._ensure_capacity.
        with pytest.raises(IndexError, match="non-negative"):
            edge_history([ShopAdded(month=0, shop_index=-1)], num_nodes=2)
        # EdgeRetired endpoints are bounds-checked like EdgeAdded, not
        # misreported as a missing live edge (LookupError).
        with pytest.raises(IndexError, match="out of range"):
            edge_history([EdgeRetired(month=0, src=5, dst=0)], num_nodes=2)
        with pytest.raises(IndexError, match="out of range"):
            edge_history([EdgeRetired(month=0, src=0, dst=-1)], num_nodes=2)


# ----------------------------------------------------------------------
# dynamic graph: unit behaviour
# ----------------------------------------------------------------------
class TestDynamicGraph:
    def test_add_and_retire_edges(self):
        base = ESellerGraph(3, [0, 1], [1, 2], [0, 0])
        dyn = DynamicGraph(base, compact_threshold=None)
        dyn.add_edge(2, 0, 1)
        assert dyn.num_edges == 3
        assert dyn.out_degrees().tolist() == [1, 1, 1]
        dyn.retire_edge(0, 1, 0)          # tombstone a *base* edge
        assert dyn.num_edges == 2
        assert dyn.tombstones == 1
        assert np.array_equal(k_hop_nodes(dyn, [0], 1), [0, 2])
        with pytest.raises(LookupError):
            dyn.retire_edge(0, 1, 0)      # already gone

    def test_add_shop_grows_node_space(self):
        dyn = DynamicGraph(ESellerGraph(2, [0], [1], [0]),
                           compact_threshold=None)
        assert dyn.add_shop() == 2
        dyn.add_edge(2, 0)
        assert dyn.num_nodes == 3
        assert np.array_equal(k_hop_nodes(dyn, [1], 2), [0, 1, 2])
        compacted = dyn.compact()
        assert compacted.num_nodes == 3 and compacted.num_edges == 2

    def test_incident_edges_positions_are_the_compacted_order(self):
        """Base edges answer at their base index (tombstones dropped with
        their ``origin``), overlay edges at ``base.num_edges + slot``;
        a grown node skips the base and ``origin`` still indexes the
        array asked.  Sorted by position, the live answer is the
        compacted graph's edge list."""
        dyn = DynamicGraph(ESellerGraph(3, [0, 1, 0], [1, 2, 2], [0, 1, 2]),
                           compact_threshold=None)
        grown = dyn.add_shop()
        dyn.add_edge(grown, 0, 1)         # slot 0 -> position 3
        dyn.add_edge(0, 1, 2)             # slot 1 -> position 4, retired below
        dyn.add_edge(0, grown, 0)         # slot 2 -> position 5
        dyn.retire_edge(0, 1, 2)
        dyn.retire_edge(0, 2, 2)          # base position 2
        asked = np.array([grown, 0, 1, 0])
        origin, position, other, types = dyn.incident_edges(asked, out=True)
        rows = sorted(zip(origin.tolist(), position.tolist(),
                          other.tolist(), types.tolist()))
        assert rows == [(0, 3, 0, 1), (1, 0, 1, 0), (1, 5, grown, 0),
                        (2, 1, 2, 1), (3, 0, 1, 0), (3, 5, grown, 0)]
        origin, position, other, _ = dyn.incident_edges(asked, out=False)
        assert sorted(zip(origin.tolist(), position.tolist(), other.tolist())) \
            == [(0, 5, 0), (1, 3, grown), (2, 0, 0), (3, 3, grown)]
        everyone = np.arange(dyn.num_nodes)
        _, position, other, types = dyn.incident_edges(everyone, out=True)
        order = np.argsort(position)
        cold = dyn.compact()
        assert np.array_equal(other[order], cold.dst)
        assert np.array_equal(types[order], cold.edge_types)

    def test_out_of_range_edge_rejected(self):
        dyn = DynamicGraph(ESellerGraph(2, [], [], []))
        with pytest.raises(IndexError):
            dyn.add_edge(0, 5)

    def test_auto_compaction_triggers(self):
        dyn = DynamicGraph(ESellerGraph(4, [0], [1], [0]),
                           compact_threshold=0.5, min_compact_edges=4)
        for _ in range(8):
            dyn.add_edge(2, 3, 0)
        assert dyn.compactions >= 1
        assert dyn.num_edges == 9

    def test_listeners_get_touched_frontier(self):
        dyn = DynamicGraph(ESellerGraph(3, [0], [1], [0]),
                           compact_threshold=None)
        seen = []
        dyn.subscribe(lambda touched: seen.append(touched.tolist()))
        dyn.add_edge(1, 2)
        dyn.retire_edge(1, 2)
        dyn.add_shop()
        dyn.unsubscribe(dyn._listeners[0])
        assert seen == [[1, 2], [1, 2], [3]]

    def test_apply_events_notifies_once_with_union(self):
        """Batch application coalesces listener traffic: one eviction
        pass over the caches per batch, not one per event."""
        dyn = DynamicGraph(ESellerGraph(4, [0], [1], [0]),
                           compact_threshold=None)
        calls = []
        dyn.subscribe(lambda touched: calls.append(touched.tolist()))
        touched = dyn.apply_events([
            EdgeAdded(month=0, src=1, dst=2),
            EdgeAdded(month=0, src=2, dst=3),
            SalesTick(month=0, shop_index=0, gmv=1.0, orders=1, customers=1),
        ])
        assert calls == [[1, 2, 3]]
        assert touched.tolist() == [1, 2, 3]

    def test_apply_events_notifies_applied_prefix_on_error(self):
        """A mid-batch failure must still surface the frontier of the
        events that DID apply — subscribed caches would otherwise keep
        serving pre-mutation state."""
        dyn = DynamicGraph(ESellerGraph(4, [0], [1], [0]),
                           compact_threshold=None)
        calls = []
        dyn.subscribe(lambda touched: calls.append(touched.tolist()))
        with pytest.raises(LookupError):
            dyn.apply_events([
                EdgeAdded(month=0, src=1, dst=2),
                EdgeRetired(month=0, src=3, dst=3),   # no live match
            ])
        assert dyn.num_edges == 2                      # first edge applied
        assert calls == [[1, 2]]


# ----------------------------------------------------------------------
# dynamic graph: the equivalence property
# ----------------------------------------------------------------------
def random_event_sequence(rng, base):
    """Draw a random mutation sequence that is valid against ``base``."""
    live = [
        (int(base.src[e]), int(base.dst[e]), int(base.edge_types[e]))
        for e in range(base.num_edges)
    ]
    num_nodes = base.num_nodes
    events = []
    for _ in range(int(rng.integers(0, 40))):
        kind = rng.random()
        if kind < 0.15:
            num_nodes += 1
            events.append(ShopAdded(month=0, shop_index=num_nodes - 1))
        elif kind < 0.45 and live:
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


def shrink_events(case):
    """Shrinking-lite: halve / drop single events (base kept intact)."""
    base, events, threshold = case
    if len(events) > 1:
        yield base, events[: len(events) // 2], threshold
    for drop in range(min(len(events), 6)):
        candidate = events[:drop] + events[drop + 1:]
        yield base, candidate, threshold


def check_replay_equals_cold_rebuild(case):
    base, events, threshold = case
    dyn = DynamicGraph(base, compact_threshold=threshold,
                       min_compact_edges=8)
    for event in events:
        try:
            dyn.apply(event)
        except LookupError:
            # A shrink candidate dropped the add a retire depended on;
            # the case is simply invalid, not a property violation.
            return
    history = edge_history(events, base=base)
    cold = ESellerGraph.from_edit_history(
        history.num_nodes, history.src, history.dst,
        history.edge_types, history.alive,
    )
    assert dyn.num_nodes == cold.num_nodes
    assert dyn.num_edges == cold.num_edges
    assert np.array_equal(dyn.in_degrees(), cold.in_degrees())
    assert np.array_equal(dyn.out_degrees(), cold.out_degrees())
    # Overlay-served queries equal the cold rebuild *before* compaction.
    seeds = range(0, cold.num_nodes, max(cold.num_nodes // 5, 1))
    for seed in seeds:
        for hops in (1, 2):
            assert np.array_equal(k_hop_nodes(dyn, [seed], hops),
                                  k_hop_nodes(cold, [seed], hops))
        ego = ego_subgraph(dyn, seed, 2)
        ref = ego_subgraph(cold, seed, 2)
        assert np.array_equal(ego.nodes, ref.nodes)
        assert ego.center_local == ref.center_local
        assert np.array_equal(ego.subgraph.src, ref.subgraph.src)
        assert np.array_equal(ego.subgraph.dst, ref.subgraph.dst)
        assert np.array_equal(ego.subgraph.edge_types, ref.subgraph.edge_types)
    # Compaction is exact: same arrays, same order — including the
    # incrementally patched CSR planes (built above by the ego queries).
    compacted = dyn.compact()
    assert np.array_equal(compacted.src, cold.src)
    assert np.array_equal(compacted.dst, cold.dst)
    assert np.array_equal(compacted.edge_types, cold.edge_types)
    out_indptr, out_order = compacted.out_csr()
    cold_indptr, cold_order = cold.out_csr()
    assert np.array_equal(out_indptr, cold_indptr)
    assert np.array_equal(out_order, cold_order)
    in_indptr, in_order = compacted.in_csr()
    cold_in_indptr, cold_in_order = cold.in_csr()
    assert np.array_equal(in_indptr, cold_in_indptr)
    assert np.array_equal(in_order, cold_in_order)


class TestReplayEquivalenceProperty:
    def test_compacted_equals_cold_rebuild(self):
        def gen(rng):
            base = random_eseller_graph(rng, max_nodes=12, max_edges=25)
            threshold = None if rng.random() < 0.5 else 0.3
            return base, random_event_sequence(rng, base), threshold

        forall(gen, check_replay_equals_cold_rebuild, trials=TRIALS,
               seed=7, shrink=shrink_events,
               name="DynamicGraph replay+compact == cold rebuild")


# ----------------------------------------------------------------------
# simulator
# ----------------------------------------------------------------------
class TestSimulator:
    def test_stream_is_deterministic(self, market):
        a = MarketplaceSimulator(market, start_month=22,
                                 edge_churn_per_month=2, seed=5)
        b = MarketplaceSimulator(market, start_month=22,
                                 edge_churn_per_month=2, seed=5)
        assert list(a.event_log()) == list(b.event_log())

    def test_edges_reveal_after_both_endpoints(self, simulator, market):
        opened = np.asarray(market.opened_month)
        for event in simulator.event_log():
            if isinstance(event, EdgeAdded):
                assert opened[event.src] <= event.month
                assert opened[event.dst] <= event.month

    def test_full_replay_reconciles_with_marketplace(self, simulator, market):
        dyn = simulator.initial_dynamic_graph()
        store = simulator.initial_store()
        for event in simulator.event_log():
            dyn.apply(event)
            store.apply(event)
        final = dyn.as_graph()
        lived = sorted(zip(final.src.tolist(), final.dst.tolist(),
                           final.edge_types.tolist()))
        expected = sorted(zip(simulator.final_graph.src.tolist(),
                              simulator.final_graph.dst.tolist(),
                              simulator.final_graph.edge_types.tolist()))
        assert lived == expected
        assert np.array_equal(store.gmv, simulator.gmv_table)
        assert np.array_equal(store.orders, simulator.orders_table)
        assert np.array_equal(store.customers, simulator.customers_table)
        assert np.array_equal(store.opened_month,
                              np.asarray(market.opened_month))

    def test_churn_exercises_tombstones(self, simulator):
        assert any(isinstance(e, EdgeRetired) for e in simulator.event_log())


# ----------------------------------------------------------------------
# streaming windows == cold rebuild; cold-start arrival masking
# ----------------------------------------------------------------------
class TestStreamingWindows:
    def test_full_replay_windows_equal_cold_batch(self, simulator, market,
                                                  dataset):
        store = simulator.initial_store()
        store.apply_events(simulator.event_log())
        cutoff = market.config.num_months - dataset.horizon
        streamed = store.instance_batch(
            cutoff, dataset.input_window, dataset.horizon,
            dataset.scaler, dataset.temporal_scaler,
        )
        observed = np.arange(market.config.num_months)[None, :] >= \
            np.asarray(market.opened_month)[:, None]
        cold = make_instance_batch(
            simulator.gmv_table, observed, store.temporal_features(),
            store.static_features(), cutoff, dataset.input_window,
            dataset.horizon, dataset.scaler, dataset.temporal_scaler,
        )
        for name in ("series", "series_scaled", "mask", "temporal",
                     "static", "labels", "labels_scaled", "levels"):
            np.testing.assert_array_equal(
                getattr(streamed, name), getattr(cold, name), err_msg=name
            )

    def test_short_cutoff_rejected(self, simulator, dataset):
        store = simulator.initial_store()
        store.apply_events(simulator.event_log())
        # The streaming window path never zero-pads history: a cutoff
        # shorter than the input window used to slip through and return
        # a silently mis-shaped batch.
        with pytest.raises(ValueError, match="input window"):
            store.instance_batch(
                dataset.input_window - 1, dataset.input_window,
                dataset.horizon, dataset.scaler, dataset.temporal_scaler,
            )

    def test_streamed_batch_matches_dataset_pipeline(self, simulator, market,
                                                     dataset):
        """The streaming store reproduces the offline dataset's test batch
        (same scalers, same cutoff) — the end-to-end window equivalence."""
        store = simulator.initial_store()
        store.apply_events(simulator.event_log())
        cutoff = dataset.test.cutoff
        streamed = store.instance_batch(
            cutoff, dataset.input_window, dataset.horizon,
            dataset.scaler, dataset.temporal_scaler,
        )
        np.testing.assert_allclose(streamed.series, dataset.test.series,
                                   rtol=0, atol=0)
        np.testing.assert_array_equal(streamed.mask, dataset.test.mask)
        np.testing.assert_allclose(streamed.series_scaled,
                                   dataset.test.series_scaled,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(streamed.temporal, dataset.test.temporal,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(streamed.static, dataset.test.static,
                                   rtol=0, atol=1e-12)


class TestColdStartArrival:
    def test_mid_window_arrivals_are_masked(self, simulator, market, dataset):
        """Shops arriving mid-input-window get exactly the months after
        their arrival unmasked — the cold-start path fed from events."""
        store = simulator.initial_store()
        store.apply_events(simulator.event_log())
        cutoff = market.config.num_months - dataset.horizon
        batch = store.instance_batch(
            cutoff, dataset.input_window, dataset.horizon,
            dataset.scaler, dataset.temporal_scaler,
        )
        start = cutoff - dataset.input_window
        window_months = np.arange(start, cutoff)
        opened = np.asarray(market.opened_month)
        arrivals = np.flatnonzero(
            (opened >= simulator.start_month) & (opened < cutoff)
        )
        assert arrivals.size > 0, "simulator produced no mid-stream arrivals"
        for shop in arrivals:
            expected = window_months >= opened[shop]
            observed_cols = store.gmv[shop, np.clip(window_months, 0, None)] > 0
            np.testing.assert_array_equal(
                batch.mask[shop], expected & observed_cols
            )
            # Masked months are exactly level in scaled space.
            assert np.all(batch.series_scaled[shop][~batch.mask[shop]] == 0.0)

    def test_new_shop_mask_agrees_with_stream(self, simulator, market,
                                              dataset):
        """`ForecastDataset.new_shop_mask` equals the mask derived live
        from streamed arrival events."""
        store = simulator.initial_store()
        store.apply_events(simulator.event_log())
        cutoff = dataset.test.cutoff
        np.testing.assert_array_equal(
            dataset.new_shop_mask(threshold=10),
            store.new_shop_mask(cutoff, threshold=10),
        )
        # Threshold edge cases: 0 months -> only unseen shops; huge
        # threshold -> everyone.
        assert not store.new_shop_mask(cutoff, threshold=0).any() or \
            (store.history_lengths(cutoff) == 0).any()
        assert store.new_shop_mask(cutoff, threshold=10 ** 6).all()


# ----------------------------------------------------------------------
# LRU statistics (the cache counts capacity pressure only)
# ----------------------------------------------------------------------
class TestLRUStatsEpochs:
    def test_evictions_survive_flushes(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.put("b", 2)                    # capacity eviction
        cache.clear()
        assert cache.evictions == 1          # pressure signal persists


# ----------------------------------------------------------------------
# delta-aware gateway invalidation
# ----------------------------------------------------------------------
def _live_gateway(factory, dataset, registry, simulator, **kwargs):
    gateway = ServingGateway(
        factory, dataset, registry,
        GatewayConfig(max_batch_size=8, max_wait=10.0, **kwargs),
    )
    dyn = simulator.initial_dynamic_graph(compact_threshold=None)
    gateway.attach_stream(dyn)
    return gateway, dyn


class TestDeltaInvalidation:
    def test_only_touched_entries_evicted(self, factory, dataset, registry,
                                          simulator):
        gateway, dyn = _live_gateway(factory, dataset, registry, simulator)
        version = gateway.model_version
        shops = list(range(0, 24))
        gateway.predict_many(shops)
        assert len(gateway.result_cache) == len(shops)
        pre_nodes = {
            shop: gateway.result_cache.get(shop, version).nodes.copy()
            for shop in shops
        }
        # Craft a mutation inside the rows shop 0 read so at least one
        # entry must go, touching nothing outside its frontier.
        read0 = pre_nodes[0]
        touched = np.array([int(read0[0]), int(read0[-1])])
        dyn.add_edge(touched[0], touched[1], 0)
        evicted = {shop for shop in shops
                   if gateway.result_cache.get(shop, version) is None}
        # Exactly the entries whose memoised node sets met the frontier.
        for shop in shops:
            intersects = bool(np.isin(touched, pre_nodes[shop]).any())
            assert (shop in evicted) == intersects, shop
        assert 0 in evicted
        assert len(evicted) < len(shops), "delta eviction flushed everything"
        gateway.close()

    def test_event_outside_the_receptive_rows_keeps_the_entry(
            self, factory, dataset, registry, simulator):
        """A result is tagged with the rows its forward read, not its
        ego: an edge event on a hop-2 node no layer reads evicts
        nothing, and the cached forecast still equals a recompute."""
        gateway, dyn = _live_gateway(factory, dataset, registry, simulator)
        hops, depth = gateway.config.hops, gateway.model.receptive_depth
        assert (hops, depth) == (2, 1)
        unread = {}
        for shop in range(dataset.test.num_shops):
            read = receptive_layout(dyn, [shop], depth).rows
            outside = np.setdiff1d(ego_subgraph(dyn, shop, hops).nodes, read)
            if outside.size:
                unread[shop] = outside
        shop, outside = next(iter(unread.items()))
        first = gateway.predict_many([shop])
        assert not first[0].cached
        dyn.add_edge(int(outside[0]), int(outside[0]), 0)   # a self-loop out there
        version = gateway.model_version
        assert gateway.result_cache.get(shop, version) is not None
        assert gateway.metrics.counter("delta_evicted_results") == 0
        again = gateway.predict_many([shop])
        assert again[0].cached
        np.testing.assert_array_equal(again[0].forecast, first[0].forecast)
        cold = ServingGateway(
            factory, dataclasses.replace(dataset, graph=dyn.as_graph()),
            registry, GatewayConfig(max_batch_size=1))
        np.testing.assert_array_equal(cold.predict(shop).forecast,
                                      first[0].forecast)
        # An edge into a row it reads does evict.
        dyn.add_edge(int(outside[0]), shop, 0)
        assert gateway.result_cache.get(shop, version) is None
        gateway.close()
        cold.close()

    def test_read_row_tags_evict_only_what_an_event_can_change(
            self, factory, dataset, registry, simulator):
        """Property: random edge additions, retirements and late ticks on
        an attached stream.  After every event each surviving result
        equals a cold recompute on the folded graph (to summation order:
        another batch composition), an entry is evicted only if the rows
        its forward read meet the event's touched frontier, and a cache
        hit is tagged stale exactly when a tick landed in one of them."""
        seen = {"evicted": 0, "kept_touched_ego": 0, "stale": 0}

        def prop(seed):
            rng = np.random.default_rng(seed)
            gateway = ServingGateway(
                factory, dataset, registry,
                GatewayConfig(max_batch_size=8, max_wait=10.0,
                              max_staleness_months=100))
            dyn = simulator.initial_dynamic_graph(compact_threshold=None)
            store = simulator.initial_store(watermark=2)
            gateway.attach_stream(dyn, store=store)
            frontiers = []
            dyn.subscribe(frontiers.append)
            lru, hops = gateway.result_cache.stats, gateway.config.hops
            depth = gateway.model.receptive_depth
            n = dataset.test.num_shops
            for _ in range(10):
                asked = rng.integers(0, n, size=6)
                before = {key: value for key, (value, _) in lru._entries.items()}
                for response in gateway.predict_many(asked):
                    entry = before.get((response.shop_index,
                                        gateway.model_version))
                    if entry is not None:
                        read = receptive_layout(dyn, [response.shop_index],
                                                depth).rows
                        ticked = store.last_tick_seq[read]
                        assert response.stale == bool(
                            (ticked > entry.tick_seq).any())
                        seen["stale"] += int(response.stale)
                before = {key: value for key, (value, _) in lru._entries.items()}
                frontiers.clear()
                kind = rng.integers(3)
                if kind == 0:
                    s, d = rng.integers(0, n, size=2)
                    dyn.add_edge(int(s), int(d), int(rng.integers(0, 3)))
                elif kind == 1:
                    live = dyn.as_graph()
                    e = int(rng.integers(live.num_edges))
                    dyn.retire_edge(int(live.src[e]), int(live.dst[e]),
                                    int(live.edge_types[e]))
                else:                           # late: the frontier stays
                    store.apply(SalesTick(
                        month=int(store.frontier) - int(rng.integers(0, 2)),
                        shop_index=int(rng.integers(0, n)), gmv=1.0))
                touched = (np.concatenate(frontiers) if frontiers
                           else np.zeros(0, dtype=np.int64))
                after = dict(lru._entries)
                for key, (entry, _) in after.items():  # tagged with what it read
                    read = receptive_layout(dyn, [key[0]], depth).rows
                    assert sorted(entry.nodes.tolist()) == sorted(read.tolist())
                for key, entry in before.items():
                    hit = bool(np.isin(entry.nodes, touched).any())
                    if key not in after:
                        assert hit, (key, touched)
                        seen["evicted"] += 1
                    elif np.isin(touched, ego_subgraph(dyn, key[0], hops).nodes).any():
                        seen["kept_touched_ego"] += 1
                survivors = sorted({key[0] for key in after})
                cold = ServingGateway(
                    factory, dataclasses.replace(dataset, graph=dyn.as_graph()),
                    registry, GatewayConfig(max_batch_size=64, max_wait=10.0))
                for shop, response in zip(survivors,
                                          cold.predict_many(survivors)):
                    np.testing.assert_allclose(
                        after[(shop, gateway.model_version)][0].forecast,
                        response.forecast, rtol=1e-12, atol=0)
                cold.close()
            gateway.close()

        forall(lambda rng: int(rng.integers(1 << 30)), prop, trials=6,
               seed=71, name="read-row tags")
        assert all(count >= 3 for count in seen.values()), seen

    def test_delta_path_matches_cold_gateway(self, factory, dataset, registry,
                                             simulator):
        """After churn, delta-invalidated serving equals a cold gateway
        built directly on the final graph (the 1e-12 guarantee)."""
        gateway, dyn = _live_gateway(factory, dataset, registry, simulator)
        shops = list(range(0, 20))
        gateway.predict_many(shops)                  # warm caches
        for month in list(simulator.streaming_months)[:4]:
            for event in simulator.events_for_month(month):
                dyn.apply(event)
            gateway.predict_many(shops)              # serve between churn
        live_responses = gateway.predict_many(shops)

        cold_dataset = dataclasses.replace(dataset, graph=dyn.as_graph())
        cold = ServingGateway(
            factory, cold_dataset, registry,
            GatewayConfig(max_batch_size=8, max_wait=10.0),
        )
        cold_responses = cold.predict_many(shops)
        live_forecasts = np.stack([r.forecast for r in live_responses])
        cold_forecasts = np.stack([r.forecast for r in cold_responses])
        # A surviving entry was computed in another batch composition
        # than the cold sweep's: equal to summation order, not bitwise.
        np.testing.assert_allclose(live_forecasts, cold_forecasts,
                                   rtol=1e-12, atol=0)
        gateway.close()
        cold.close()

    def test_index_keeps_what_a_scan_keeps_on_a_live_stream(
            self, factory, dataset, registry, simulator):
        """Composed oracle: event by event, the indexed gateway holds the
        same cache keys as a twin that evicts by the per-entry ``np.isin``
        scan, and its warm answers equal a cold gateway on the fold."""
        gateway, dyn = _live_gateway(factory, dataset, registry, simulator)
        twin, twin_dyn = _live_gateway(factory, dataset, registry, simulator)
        for plane in (twin.subgraph_cache, twin.result_cache):
            plane.invalidate_nodes = (
                lambda touched, lru=plane.stats: lru.invalidate_items(
                    lambda _key, value: scan_evicts(value.nodes, touched)))
        rng = np.random.default_rng(3)
        topology = [e for e in simulator.event_log()
                    if isinstance(e, (ShopAdded, EdgeAdded, EdgeRetired))]
        evicted = 0
        for event in topology[:60]:
            shops = rng.integers(0, dataset.test.num_shops, size=6)
            gateway.predict_many(shops)
            twin.predict_many(shops)
            before = len(gateway.result_cache)
            dyn.apply(event)
            twin_dyn.apply(event)
            evicted += before - len(gateway.result_cache)
            for name in ("subgraph_cache", "result_cache"):
                assert (list(getattr(gateway, name).stats._entries)
                        == list(getattr(twin, name).stats._entries)), event
        assert evicted > 0, "the stream never hit a cached ego"
        assert len(gateway.result_cache) > 0, "nothing survived to compare"
        for counter in ("graph_delta_invalidations", "delta_evicted_subgraphs",
                        "delta_evicted_results"):
            assert (gateway.metrics.counter(counter)
                    == twin.metrics.counter(counter))

        shops = np.arange(dataset.test.num_shops)
        cold = ServingGateway(
            factory, dataclasses.replace(dataset, graph=dyn.as_graph()),
            registry, GatewayConfig(max_batch_size=8, max_wait=10.0),
        )
        warm = np.stack([r.forecast for r in gateway.predict_many(shops)])
        reference = np.stack([r.forecast for r in cold.predict_many(shops)])
        # Warm entries were computed in other batch compositions than the
        # cold sweep's, so equality is to summation order, not bitwise.
        np.testing.assert_allclose(warm, reference, rtol=1e-10, atol=0)
        for each in (gateway, twin, cold):
            each.close()

    def test_untouched_results_keep_serving_from_cache(self, factory, dataset,
                                                       registry, simulator):
        gateway, dyn = _live_gateway(factory, dataset, registry, simulator)
        shops = list(range(0, 16))
        gateway.predict_many(shops)
        # A far-away mutation must leave most results cached.
        event = next(e for e in simulator.event_log()
                     if isinstance(e, EdgeAdded))
        dyn.apply(event)
        before_hits = gateway.metrics.counter("cache_hits")
        responses = gateway.predict_many(shops)
        cached = sum(r.cached for r in responses)
        assert cached > 0
        assert gateway.metrics.counter("cache_hits") == before_hits + cached
        # The wholesale path would have retained nothing:
        gateway.notify_graph_changed()
        assert len(gateway.result_cache) == 0
        assert len(gateway.subgraph_cache) == 0
        gateway.close()

    def test_metrics_expose_delta_counters_and_evictions(self, factory,
                                                         dataset, registry,
                                                         simulator):
        gateway, dyn = _live_gateway(factory, dataset, registry, simulator)
        gateway.predict_many(list(range(8)))
        event = next(e for e in simulator.event_log()
                     if isinstance(e, EdgeAdded))
        dyn.apply(event)
        report = gateway.metrics_report()
        assert report["streaming"] is True
        assert report["counters"]["graph_delta_invalidations"] >= 1
        assert set(report["subgraph_cache"]) == {"size", "evictions", "epoch"}
        assert set(report["result_cache"]) == {"size", "evictions"}
        assert report["cache_hit_rate"] == gateway.metrics.cache_hit_rate()
        gateway.close()

    def test_close_detaches_from_stream(self, factory, dataset, registry,
                                        simulator):
        gateway, dyn = _live_gateway(factory, dataset, registry, simulator)
        gateway.close()
        assert not dyn._listeners
        # Later mutations must not touch the closed gateway.
        event = next(e for e in simulator.event_log()
                     if isinstance(e, EdgeAdded))
        dyn.apply(event)

    def test_shop_beyond_snapshot_rejected_at_submit(self, factory, dataset,
                                                     registry, simulator):
        """A streamed-in shop with no feature row must be rejected up
        front — not poison a whole micro-batch at flush time."""
        gateway, dyn = _live_gateway(factory, dataset, registry, simulator)
        grown = dyn.add_shop()                  # beyond the snapshot
        parked = gateway.submit(3)
        with pytest.raises(IndexError, match="no feature row"):
            gateway.submit(grown)
        gateway.flush()                         # co-batched request survives
        assert parked.done
        gateway.close()

    def test_linked_overflow_shop_fails_only_its_requests(self, factory,
                                                          dataset, registry,
                                                          simulator):
        """A beyond-snapshot shop *linked into* a served neighborhood
        fails exactly the requests whose egos reach it; co-batched
        requests elsewhere in the graph are still served."""
        gateway, dyn = _live_gateway(factory, dataset, registry, simulator)
        grown = dyn.add_shop()
        dyn.add_edge(grown, 0, 0)               # node 0's ego now reaches it
        far = next(
            shop for shop in range(1, dataset.test.num_shops)
            if grown not in ego_subgraph(dyn, shop, gateway.config.hops).nodes
        )
        doomed = gateway.submit(0)
        fine = gateway.submit(far)
        gateway.flush()
        assert fine.done and fine.result().forecast.shape == (3,)
        with pytest.raises(IndexError, match="beyond the serving snapshot"):
            doomed.result()
        assert gateway.metrics.counter("requests_failed") == 1
        gateway.close()

    def test_overflow_shop_nobody_reads_is_served(
            self, factory, dataset, registry, simulator):
        """Servability is judged on the rows the forward reads: a
        beyond-snapshot shop that shop 0 only *writes to* leaves 0
        servable; once it links *into* 0, 0's requests fail as before."""
        gateway, dyn = _live_gateway(factory, dataset, registry, simulator)
        grown = dyn.add_shop()
        assert grown >= gateway.source_batch.num_shops
        dyn.add_edge(0, grown, 0)               # 0 -> grown: an out-neighbour
        assert grown in ego_subgraph(dyn, 0, gateway.config.hops).nodes
        served = gateway.submit(0)
        gateway.flush()
        assert served.result().forecast.shape == (3,)
        assert gateway.metrics.counter("requests_failed") == 0
        dyn.add_edge(grown, 0, 0)               # grown -> 0: now it is read
        doomed = gateway.submit(0)
        gateway.flush()
        with pytest.raises(IndexError, match="beyond the serving snapshot"):
            doomed.result()
        assert gateway.metrics.counter("requests_failed") == 1
        gateway.close()


# ----------------------------------------------------------------------
# freshness-aware result caching (SalesTick frontier subscription)
# ----------------------------------------------------------------------
class TestFreshnessAwareCaching:
    def _world(self, factory, dataset, registry, simulator, watermark=None,
               **cfg):
        gateway = ServingGateway(
            factory, dataset, registry,
            GatewayConfig(max_batch_size=8, max_wait=10.0, **cfg),
        )
        dyn = simulator.initial_dynamic_graph(compact_threshold=None)
        store = simulator.initial_store(watermark=watermark)
        gateway.attach_stream(dyn, store=store)
        return gateway, dyn, store

    def test_fresh_tick_inside_ego_tags_cached_result_stale(
            self, factory, dataset, registry, simulator):
        gateway, dyn, store = self._world(factory, dataset, registry,
                                          simulator, max_staleness_months=2)
        first = gateway.predict(0)
        assert not first.stale and first.staleness_months == 0
        month = simulator.start_month
        store.apply(SalesTick(month=month, shop_index=0, gmv=50.0,
                              orders=2, customers=1))
        second = gateway.predict(0)
        assert second.cached, "within budget the entry must keep serving"
        assert second.stale
        assert second.staleness_months == 1    # frontier moved start-1 -> start
        report = gateway.metrics_report()
        assert report["counters"]["stale_results_served"] == 1
        assert report["data_freshness"]["frontier"] == month
        assert report["data_freshness"]["max_staleness_months"] == 2
        gateway.close()

    def test_tick_outside_ego_leaves_entry_fresh(self, factory, dataset,
                                                 registry, simulator):
        gateway, dyn, store = self._world(factory, dataset, registry,
                                          simulator, max_staleness_months=3)
        target = gateway.predict(0)
        read = set(gateway.result_cache.get(
            0, gateway.model_version).nodes.tolist())
        far = next(s for s in range(dataset.test.num_shops)
                   if s not in read)
        store.apply(SalesTick(month=simulator.start_month, shop_index=far,
                              gmv=10.0, orders=1, customers=1))
        again = gateway.predict(0)
        assert again.cached and not again.stale
        np.testing.assert_array_equal(again.forecast, target.forecast)
        gateway.close()

    def test_frontier_beyond_budget_evicts_results(self, factory, dataset,
                                                   registry, simulator):
        gateway, dyn, store = self._world(factory, dataset, registry,
                                          simulator, max_staleness_months=1)
        shops = [0, 5, 9]
        gateway.predict_many(shops)
        assert len(gateway.result_cache) == len(shops)
        month = simulator.start_month
        store.apply(SalesTick(month=month, shop_index=0, gmv=1.0))
        assert len(gateway.result_cache) == len(shops)   # age 1 == budget
        store.apply(SalesTick(month=month + 1, shop_index=0, gmv=1.0))
        # Frontier advanced 2 months past every entry's data month: the
        # eager sweep expires them all, ego intersection notwithstanding.
        assert len(gateway.result_cache) == 0
        report = gateway.metrics_report()
        assert report["counters"]["freshness_evictions"] == len(shops)
        response = gateway.predict(5)
        assert not response.cached and not response.stale
        gateway.close()

    def test_zero_budget_serves_same_month_evicts_older(
            self, factory, dataset, registry, simulator):
        gateway, dyn, store = self._world(factory, dataset, registry,
                                          simulator, max_staleness_months=0)
        month = simulator.start_month
        gateway.predict(0)
        # Same-month partial: outdated but age 0 -> stale-tagged serve.
        store.apply(SalesTick(month=month - 1, shop_index=0, gmv=5.0))
        tagged = gateway.predict(0)
        assert tagged.cached and tagged.stale
        assert tagged.staleness_months == 0
        # Frontier advance: zero budget expires the entry immediately.
        store.apply(SalesTick(month=month, shop_index=0, gmv=5.0))
        recomputed = gateway.predict(0)
        assert not recomputed.cached
        gateway.close()

    def test_without_budget_ticks_never_evict(self, factory, dataset,
                                              registry, simulator):
        gateway, dyn, store = self._world(factory, dataset, registry,
                                          simulator)   # max_staleness None
        gateway.predict(0)
        store.apply(SalesTick(month=simulator.start_month, shop_index=0,
                              gmv=9.0))
        response = gateway.predict(0)
        assert response.cached and not response.stale
        report = gateway.metrics_report()
        assert report["counters"].get("freshness_evictions", 0.0) == 0.0
        assert report["data_freshness"]["max_staleness_months"] is None
        gateway.close()

    def test_report_surfaces_watermark_drops(self, factory, dataset,
                                             registry, simulator):
        gateway, dyn, store = self._world(factory, dataset, registry,
                                          simulator, watermark=0,
                                          max_staleness_months=2)
        month = simulator.start_month
        store.apply(SalesTick(month=month, shop_index=0, gmv=1.0))
        store.apply(SalesTick(month=month - 1, shop_index=1, gmv=1.0))
        data = gateway.metrics_report()["data_freshness"]
        assert data["ticks_dropped"] == 1
        assert data["ticks_applied"] == 1
        assert data["watermark"] == 0
        gateway.close()

    def test_expired_lookup_counts_as_cache_miss(self, factory, dataset,
                                                 registry, simulator):
        """An entry expired at lookup time recomputes, and the gateway
        counts the lookup as a miss, not a hit."""
        gateway, dyn, store = self._world(factory, dataset, registry,
                                          simulator, max_staleness_months=0)
        month = simulator.start_month
        gateway.predict(0)
        counter = gateway.metrics.counter
        assert (counter("cache_hits"), counter("cache_misses")) == (0, 1)
        # Advance the frontier without notifying the gateway, so the
        # eager sweep cannot run and the lazy lookup path must expire it.
        store.unsubscribe(gateway.notify_data_delta)
        store.apply(SalesTick(month=month + 1, shop_index=0, gmv=1.0))
        response = gateway.predict(0)
        assert not response.cached
        assert (counter("cache_hits"), counter("cache_misses")) == (0, 2)
        assert gateway.metrics.counter("freshness_evictions") == 1.0
        store.subscribe(gateway.notify_data_delta)   # restore for close()
        gateway.close()

    def test_one_count_of_cache_hits(self, factory, dataset, registry,
                                     simulator):
        """Hits, misses, a lookup-time expiry and a delta eviction: the
        report's hit rate, the gateway's counters and the hub's exported
        series are the same number, because only the gateway counts."""
        gateway, dyn, store = self._world(factory, dataset, registry,
                                          simulator, max_staleness_months=0)
        counter = gateway.metrics.counter
        gateway.predict_many([0, 1, 2])                 # 3 misses
        gateway.predict_many([0, 1, 2, 1, 2])           # 5 hits
        # Lookup-time expiry: the frontier advances behind the gateway's
        # back, so the lazy lookup (not the eager sweep) expires shop 0.
        store.unsubscribe(gateway.notify_data_delta)
        store.apply(SalesTick(month=simulator.start_month + 1, shop_index=0,
                              gmv=1.0))
        store.subscribe(gateway.notify_data_delta)
        assert not gateway.predict(0).cached            # 1 miss
        assert counter("freshness_evictions") == 1
        # Delta eviction: an edge into shop 0 evicts its fresh entry.
        read = gateway.result_cache.get(0, gateway.model_version).nodes
        dyn.add_edge(int(read[-1]), 0, 0)
        assert counter("delta_evicted_results") >= 1
        assert not gateway.predict(0).cached            # 1 miss
        assert gateway.predict(0).cached                # 1 hit
        hits, misses = counter("cache_hits"), counter("cache_misses")
        assert (hits, misses) == (6, 5)
        hub = MetricsHub()
        hub.attach_registry(gateway.metrics)
        exported = series_values(hub.collect())["serving.cache_hit_rate"]
        assert gateway.metrics_report()["cache_hit_rate"] \
            == hits / (hits + misses) == exported
        # The caches count capacity pressure and nothing else.
        for cache in (gateway.result_cache, gateway.subgraph_cache):
            assert not {"hits", "misses"} & set(vars(cache.stats))
        gateway.close()

    def test_sweep_runs_only_on_frontier_advance(self, factory, dataset,
                                                 registry, simulator,
                                                 monkeypatch):
        gateway, dyn, store = self._world(factory, dataset, registry,
                                          simulator, max_staleness_months=1)
        sweeps = []
        original = gateway.result_cache.expire_older_than
        monkeypatch.setattr(gateway.result_cache, "expire_older_than",
                            lambda cutoff: sweeps.append(cutoff) or original(cutoff))
        month = simulator.start_month
        store.apply(SalesTick(month=month, shop_index=0, gmv=1.0))
        assert len(sweeps) == 1              # frontier advanced: sweep
        store.apply(SalesTick(month=month - 1, shop_index=1, gmv=1.0))
        store.apply(SalesTick(month=month, shop_index=2, gmv=1.0))
        assert len(sweeps) == 1              # in-window late / same month: no sweep
        store.apply(SalesTick(month=month + 1, shop_index=0, gmv=1.0))
        assert len(sweeps) == 2
        gateway.close()

    def test_close_unregisters_streaming_probe(self, factory, dataset,
                                               registry, simulator):
        """A closed gateway neither holds the store through its probe nor
        reports on a stream it no longer follows."""
        gateway, dyn, store = self._world(factory, dataset, registry,
                                          simulator, max_staleness_months=1)
        assert "streaming" in gateway.health()["probes"]
        gateway.close()
        assert "streaming" not in gateway.health()["probes"]
        gateway.close()                      # still idempotent

    def test_freshness_sweep_has_its_own_span(self, factory, dataset,
                                              registry, simulator):
        """A frontier advance shows as ``gateway.freshness_invalidation``
        inside the caller's span around the store fold; an in-window late
        tick returns before the sweep and opens none."""
        gateway, dyn, store = self._world(factory, dataset, registry,
                                          simulator, max_staleness_months=1)
        month = simulator.start_month
        tracer = Tracer()
        with use_tracer(tracer):
            with obs_tracing.span("ingest.store_fold"):
                store.apply(SalesTick(month=month, shop_index=0, gmv=1.0))
            with obs_tracing.span("ingest.store_fold"):
                store.apply(SalesTick(month=month - 1, shop_index=1, gmv=1.0))
        advance, late = tracer.roots
        assert [child.name for child in advance.children] == [
            "gateway.freshness_invalidation"]
        assert late.children == []
        gateway.close()

    def test_tick_counter_counts_ticks_not_coalesced_shops(
            self, factory, dataset, registry, simulator):
        """Batched ingestion coalesces notifications per shop set; the
        store's ``ticks_applied`` — the one tick count, exported by the
        hub — still counts accepted *ticks*, and the gateway keeps no
        copy of it."""
        gateway, dyn, store = self._world(factory, dataset, registry,
                                          simulator, max_staleness_months=2)
        notified = []
        store.subscribe(lambda shops, frontier: notified.append(
            shops.tolist()))
        hub = MetricsHub()
        hub.attach_streaming(store)
        month = simulator.start_month
        before = store.ticks_applied
        store.apply_events([
            SalesTick(month=month, shop_index=0, gmv=1.0),
            SalesTick(month=month + 1, shop_index=0, gmv=2.0),
            SalesTick(month=month + 1, shop_index=3, gmv=3.0),
        ])
        assert notified == [[0, 3]]
        assert store.ticks_applied - before == 3
        store.apply(SalesTick(month=month + 1, shop_index=0, gmv=4.0))
        assert store.ticks_applied - before == 4
        assert series_values(hub.collect())["streaming.ticks_applied"] \
            == store.ticks_applied
        assert not any("tick" in name
                       for name in gateway.metrics_report()["counters"])
        gateway.close()

    def test_close_detaches_tick_subscription(self, factory, dataset,
                                              registry, simulator):
        gateway, dyn, store = self._world(factory, dataset, registry,
                                          simulator, max_staleness_months=1)
        assert store._tick_listeners
        gateway.close()
        assert not store._tick_listeners
        # Re-attach replaces, never stacks, subscriptions.
        gateway2 = ServingGateway(
            factory, dataset, registry,
            GatewayConfig(max_batch_size=8, max_wait=10.0),
        )
        gateway2.attach_stream(dyn, store=store)
        gateway2.attach_stream(dyn, store=store)
        assert len(store._tick_listeners) == 1
        gateway2.close()

    def test_negative_staleness_budget_rejected(self):
        with pytest.raises(ValueError):
            GatewayConfig(max_staleness_months=-1).validate()


_PERCENTILE_CALLS = {"percentile", "nanpercentile", "quantile",
                     "nanquantile", "quantiles"}


def test_one_module_computes_percentiles():
    """Structure lint (tier-1): every percentile in ``src/repro`` comes
    from ``serving/metrics.py`` (``percentile_summary``).  No other
    module calls a percentile / quantile function or defines a
    percentile helper of its own: a second definition (nearest-rank
    against interpolated, say) reports a different p95 for the same
    observations."""
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    computing = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", "")
                if name in _PERCENTILE_CALLS:
                    computing.add(path.relative_to(root).as_posix())
            elif isinstance(node, ast.FunctionDef) and any(
                    word in node.name.lower()
                    for word in ("percentile", "quantile", "pct")):
                if node.name != "percentile_summary":
                    computing.add(path.relative_to(root).as_posix())
    assert computing == {"serving/metrics.py"}, computing


class TestEventValidation:
    def test_store_rejects_negative_shop_index(self):
        store = StreamingFeatureStore(4, 10)
        with pytest.raises(IndexError):
            store.apply(SalesTick(month=1, shop_index=-1, gmv=5.0,
                                  orders=1, customers=1))
        with pytest.raises(IndexError):
            store.register_shop(-2, 0)


# ----------------------------------------------------------------------
# online adaptation
# ----------------------------------------------------------------------
class TestOnlineAdapter:
    def _world(self, factory, dataset, simulator):
        registry = ModelRegistry()
        registry.publish(factory(), trained_at_month=simulator.start_month)
        store = simulator.initial_store()
        dyn = simulator.initial_dynamic_graph()
        return registry, store, dyn

    def test_no_drift_no_publish(self, factory, dataset, simulator):
        registry, store, dyn = self._world(factory, dataset, simulator)
        adapter = OnlineAdapter(
            factory(), registry, store, dyn, dataset,
            OnlineAdapterConfig(drift_threshold=1e9, adapt_steps=2),
        )
        for month in simulator.streaming_months:
            for event in simulator.events_for_month(month):
                dyn.apply(event)
                store.apply(event)
            adapter.observe_month(month)
        assert registry.num_versions == 1
        assert not adapter.adaptations
        assert np.isfinite(adapter.error_ewma).any()

    def test_drift_triggers_finetune_and_hot_swap(self, factory, dataset,
                                                  registry, simulator):
        local_registry, store, dyn = self._world(factory, dataset, simulator)
        gateway = ServingGateway(
            factory, dataset, local_registry,
            GatewayConfig(max_batch_size=8, max_wait=10.0),
        )
        gateway.attach_stream(dyn)
        adapter = OnlineAdapter(
            factory(), local_registry, store, dyn, dataset,
            OnlineAdapterConfig(drift_threshold=0.25, min_drifted_shops=2,
                                adapt_steps=3, cooldown_months=10 ** 6),
        )
        reports = []
        for month in simulator.streaming_months:
            for event in simulator.events_for_month(month):
                dyn.apply(event)
                store.apply(event)
            report = adapter.observe_month(month)
            if report is not None:
                reports.append(report)
        assert reports, "low threshold must trigger at least one adaptation"
        assert local_registry.num_versions == 1 + len(reports)
        assert len(reports) == 1, "cooldown must hold further adaptations"
        report = reports[0]
        assert report.num_drifted >= 2
        assert np.isfinite(report.pre_loss) and np.isfinite(report.post_loss)
        # The gateway hot-swapped to the adapted version.
        response = gateway.predict(0)
        assert response.model_version == local_registry.latest().version
        assert local_registry.latest().metadata["online_adaptation"] == 1.0
        gateway.close()

    def test_adaptation_reduces_fresh_window_loss(self, factory, dataset,
                                                  simulator):
        registry, store, dyn = self._world(factory, dataset, simulator)
        adapter = OnlineAdapter(
            factory(), registry, store, dyn, dataset,
            OnlineAdapterConfig(drift_threshold=0.25, min_drifted_shops=1,
                                adapt_steps=10, cooldown_months=1),
        )
        for month in simulator.streaming_months:
            for event in simulator.events_for_month(month):
                dyn.apply(event)
                store.apply(event)
            adapter.observe_month(month)
        assert adapter.adaptations
        for report in adapter.adaptations:
            assert report.post_loss <= report.pre_loss * 1.05

    def test_post_loss_reflects_published_weights(self, factory, dataset,
                                                  simulator):
        """Even with a single fine-tune step, post_loss must be measured
        after the step that produced the published weights."""
        registry, store, dyn = self._world(factory, dataset, simulator)
        adapter = OnlineAdapter(
            factory(), registry, store, dyn, dataset,
            OnlineAdapterConfig(drift_threshold=0.25, min_drifted_shops=1,
                                adapt_steps=1, cooldown_months=10 ** 6),
        )
        for month in simulator.streaming_months:
            for event in simulator.events_for_month(month):
                dyn.apply(event)
                store.apply(event)
            adapter.observe_month(month)
        assert adapter.adaptations
        report = adapter.adaptations[0]
        assert report.post_loss != report.pre_loss

    def test_ingest_respects_store_watermark(self, simulator):
        """A tick the store's watermark drops is not fresh evidence:
        ``ticked`` marks exactly the accepted cells, and a snapshot
        preload marks none."""
        store = simulator.initial_store(watermark=1)
        assert not store.ticked.any()           # preloaded months
        month = simulator.start_month
        store.apply(SalesTick(month=month, shop_index=0, gmv=5.0, orders=1,
                              customers=1))
        store.apply(SalesTick(month=month + 2, shop_index=1, gmv=5.0,
                              orders=1, customers=1))
        store.apply(SalesTick(month=month, shop_index=2, gmv=9.0, orders=1,
                              customers=1))     # dropped by the watermark
        store.apply(SalesTick(month=month + 1, shop_index=0, gmv=1.0))
        assert store.ticks_dropped == 1 and store.ticks_applied == 3
        assert sorted(zip(*np.nonzero(store.ticked))) == [
            (0, month), (0, month + 1), (1, month + 2)]
        store.apply(SalesTick(month=month + 3, shop_index=store.num_shops,
                              gmv=1.0))         # grows the table
        assert store.ticked.shape == (store.num_shops, store.num_months)
        assert store.ticked[-1].sum() == 1

    def test_scored_shops_are_active_shops_with_an_accepted_tick(
            self, factory, dataset, market):
        """At every month close the shops whose drift EWMA moved are
        exactly the active shops with an accepted tick whose event month
        lies in ``[cutoff, month]`` — worked out here from the event list
        and the store's ``ticks_applied`` deltas, late and dropped ticks
        included."""
        simulator = MarketplaceSimulator(
            market, start_month=22, edge_churn_per_month=2,
            late_tick_fraction=0.5, late_tick_max_delay=3, seed=5)
        registry = ModelRegistry()
        registry.publish(factory(), trained_at_month=simulator.start_month)
        store = simulator.initial_store(watermark=1)
        dyn = simulator.initial_dynamic_graph()
        adapter = OnlineAdapter(factory(), registry, store, dyn, dataset,
                                OnlineAdapterConfig(drift_threshold=1e9))
        accepted = []                           # (shop, event month)
        scored_months = partial = 0
        for month in simulator.streaming_months:
            for event in simulator.events_for_month(month):
                dyn.apply(event)
                before = store.ticks_applied
                store.apply(event)
                if store.ticks_applied > before:
                    accepted.append((event.shop_index, event.month))
            cutoff = month - dataset.horizon + 1
            previous = adapter.error_ewma.copy()
            adapter.observe_month(month)
            current = adapter.error_ewma
            changed = np.flatnonzero(
                ~((previous == current[:previous.size])
                  | (np.isnan(previous) & np.isnan(current[:previous.size]))))
            if cutoff < dataset.input_window:
                assert changed.size == 0
                continue
            active = store.instance_batch(
                cutoff, dataset.input_window, dataset.horizon,
                dataset.scaler, dataset.temporal_scaler).mask.any(axis=1)
            evidence = {shop for shop, tick_month in accepted
                        if cutoff <= tick_month <= month}
            expected = sorted(shop for shop in evidence if active[shop])
            assert changed.tolist() == expected, month
            scored_months += 1
            partial += len(expected) < int(active.sum())
        assert store.ticks_dropped > 0 and store.late_ticks_accepted > 0
        assert scored_months >= 3
        assert partial, "vacuity: some active shop lacked fresh evidence"

    def test_requires_temporal_scaler(self, factory, dataset, simulator):
        registry, store, dyn = self._world(factory, dataset, simulator)
        stripped = dataclasses.replace(dataset, temporal_scaler=None)
        with pytest.raises(ValueError):
            OnlineAdapter(factory(), registry, store, dyn, stripped)
