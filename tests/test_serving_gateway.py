"""Tests for the serving gateway subsystem (repro.serving)."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.core import Gaia, GaiaConfig
from repro.data import MarketplaceConfig, build_dataset, build_marketplace
from repro.deploy import ModelRegistry, OnlineModelServer
from repro.graph.sampling import EgoSubgraph, ego_subgraphs, receptive_layout
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.serving import (
    GatewayConfig,
    LoadGenerator,
    LRUCache,
    MetricsRegistry,
    MicroBatcher,
    ResultCache,
    ServingGateway,
    SubgraphCache,
    build_disjoint_batch,
    gather_batch,
    run_load,
)
from repro.streaming import DynamicGraph

from helpers import forall, receptive_levels_oracle, scan_evicts


@pytest.fixture(scope="module")
def dataset():
    market = build_marketplace(MarketplaceConfig(num_shops=50, seed=31))
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


class WholeEgoGaia(Gaia):
    """The same model declaring no depth: served whole ``hops`` egos
    through the subgraph cache, the path every model took before the
    gateway laid batches out by what they read."""

    receptive_depth = None


@pytest.fixture(scope="module")
def whole_ego_factory(gaia_config):
    return lambda: WholeEgoGaia(gaia_config, seed=0)


def rows_read(graph, shop, depth=1):
    """Host rows one shop's ``depth``-layer forecast reads."""
    return int(receptive_layout(graph, [shop], depth).rows_within[-1])


@pytest.fixture(scope="module")
def registry(factory):
    registry = ModelRegistry()
    registry.publish(factory(), trained_at_month=28)
    return registry


def make_gateway(factory, dataset, registry=None, **kwargs):
    # A forever max_wait keeps requests parked until max_batch_size fills
    # (or an explicit flush), so tests exercise genuinely multi-request
    # node-disjoint batches rather than degenerate singletons.
    defaults = dict(max_batch_size=8, max_wait=10.0)
    defaults.update(kwargs)
    return ServingGateway(factory, dataset, registry,
                          GatewayConfig(**defaults))


class TestMicroBatcher:
    def test_flushes_on_size(self):
        batcher = MicroBatcher(max_batch_size=3, max_wait=10.0)
        assert batcher.submit(0)[1] is False
        assert batcher.submit(1)[1] is False
        assert batcher.submit(2)[1] is True
        assert len(batcher.drain()) == 3
        assert len(batcher) == 0

    def test_flushes_on_wait(self):
        now = [0.0]
        batcher = MicroBatcher(max_batch_size=100, max_wait=0.5,
                               clock=lambda: now[0])
        batcher.submit(0)
        assert not batcher.due()
        now[0] = 0.6
        assert batcher.due()

    def test_drain_caps_at_batch_size(self):
        batcher = MicroBatcher(max_batch_size=2, max_wait=0.0)
        for i in range(5):
            batcher.submit(i)
        assert len(batcher.drain()) == 2
        assert len(batcher) == 3

    def test_unserved_result_raises(self):
        batcher = MicroBatcher()
        request, _ = batcher.submit(0)
        with pytest.raises(RuntimeError):
            request.result()

    def test_validates_policy(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_wait=-1.0)


class TestLRUCache:
    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)           # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.evictions == 1

    def test_invalidate_if(self):
        cache = LRUCache(8)
        for i in range(6):
            cache.put(("k", i), i)
        dropped = cache.invalidate_if(lambda key: key[1] % 2 == 0)
        assert dropped == 3
        assert len(cache) == 3


class _SubgraphPlane:
    """Drive a SubgraphCache by small integer key ids."""

    def __init__(self, capacity):
        self.cache = SubgraphCache(capacity)

    def key(self, k):
        return (k, 2)

    def put(self, k, nodes):
        # The subgraph plane has no unknown-provenance entries: an ego
        # always knows its nodes.
        nodes = np.asarray([] if nodes is None else nodes, dtype=np.int64)
        self.cache.put(k, 2, EgoSubgraph(center=k, subgraph=None,
                                         nodes=nodes, center_local=0))
        return nodes

    def get(self, k):
        return self.cache.get(k, 2)


class _ResultPlane:
    """Drive a ResultCache by small integer key ids."""

    def __init__(self, capacity):
        self.cache = ResultCache(capacity)

    def key(self, k):
        return (k, 7)

    def put(self, k, nodes):
        self.cache.put(k, 7, forecast=np.zeros(1), subgraph_nodes=0,
                       nodes=nodes)
        return None if nodes is None else np.asarray(nodes, dtype=np.int64)

    def get(self, k):
        return self.cache.get(k, 7)


def check_index(lru, model):
    """Every live entry's nodes posted; nothing else posted anywhere."""
    assert list(lru._entries) == list(model)          # same keys, LRU order
    posted = {(tag, key) for tag, keys in lru._postings.items()
              for key in keys}
    assert all(lru._postings.values()), "empty posting set kept"
    expected = set()
    for key, nodes in model.items():
        tags = lru._entries[key][1]
        if nodes is None:
            assert len(tags) == 1 and not isinstance(next(iter(tags)), int)
        else:
            assert sorted(tags) == sorted(nodes.tolist())
        expected |= {(tag, key) for tag in tags}
    assert posted == expected


class TestNodeIndex:
    """``invalidate_nodes`` reads an inverted index; it must evict what
    the per-entry ``np.isin`` scan it replaced would have evicted."""

    CAPACITY, KEYS, NODES = 4, 10, 12      # more keys than room: LRU evicts
    KINDS = ("put",) * 8 + ("get", "discard", "invalidate_if",
                            "invalidate_items", "clear") + ("nodes",) * 3

    @classmethod
    def _gen(cls, rng):
        ops = []
        for _ in range(int(rng.integers(1, 60))):
            # Duplicates and empty sets on purpose, in egos and frontiers.
            nodes = rng.integers(0, cls.NODES, size=int(rng.integers(0, 5)))
            ops.append((str(rng.choice(cls.KINDS)),
                        int(rng.integers(cls.KEYS)),
                        None if rng.random() < 0.15 else nodes.tolist()))
        return ops

    @classmethod
    def _run(cls, plane, ops):
        lru, model = plane.cache.stats, OrderedDict()
        for kind, k, nodes in ops:
            key = plane.key(k)
            if kind == "put":                  # fresh key or overwrite
                model[key] = plane.put(k, nodes)
                model.move_to_end(key)
                if len(model) > cls.CAPACITY:
                    model.popitem(last=False)
            elif kind == "get":
                assert (plane.get(k) is not None) == (key in model)
                if key in model:
                    model.move_to_end(key)
            elif kind == "discard":
                assert lru.discard(key) == (key in model)
                model.pop(key, None)
            elif kind == "clear":
                assert lru.clear() == len(model)
                model.clear()
            else:
                if kind == "invalidate_if":
                    doomed = [key for key in model if key[0] % 3 == k % 3]
                    evicted = lru.invalidate_if(
                        lambda key: key[0] % 3 == k % 3)
                elif kind == "invalidate_items":
                    doomed = [key for key in model if key[0] < k]
                    evicted = lru.invalidate_items(
                        lambda key, _value: key[0] < k)
                else:
                    touched = [] if nodes is None else nodes
                    doomed = [key for key, held in model.items()
                              if scan_evicts(held, touched)]
                    evicted = plane.cache.invalidate_nodes(np.array(
                        touched, dtype=np.int64))
                assert evicted == len(doomed), (kind, k, nodes)
                for key in doomed:
                    del model[key]
            check_index(lru, model)
        return lru.evictions

    @pytest.mark.parametrize("plane_type", [_SubgraphPlane, _ResultPlane])
    def test_index_equals_scan_oracle_and_never_leaks(self, plane_type):
        capacity_evictions = []
        forall(
            self._gen,
            lambda ops: capacity_evictions.append(
                self._run(plane_type(self.CAPACITY), ops)),
            trials=150, seed=14,
            shrink=lambda ops: (ops[:i] + ops[i + 1:]
                                for i in range(len(ops))),
            name=f"{plane_type.__name__} index == scan",
        )
        assert sum(capacity_evictions) > 100, "LRU pressure never generated"

    @pytest.mark.parametrize("plane_type", [_SubgraphPlane, _ResultPlane])
    def test_invalidate_nodes_never_iterates_the_entries(self, plane_type):
        """Deterministic guard against the scan coming back: the entry
        map refuses iteration, the eviction must still be exact."""

        class NoScan(OrderedDict):
            def _refuse(self, *args, **kwargs):
                raise AssertionError("invalidate_nodes scanned the cache")
            items = values = keys = __iter__ = _refuse

        plane = plane_type(64)
        for k in range(40):
            plane.put(k, [100 + k, 200 + k // 2])
        lru = plane.cache.stats
        lru._entries = NoScan(lru._entries)
        assert plane.cache.invalidate_nodes(np.array([117, 131, 999])) == 2
        assert len(lru) == 38
        assert plane.key(17) not in lru and plane.key(31) not in lru
        assert plane.cache.invalidate_nodes(np.array([203])) == 2  # 6 and 7
        assert plane.key(6) not in lru and plane.key(7) not in lru

    def test_unknown_provenance_goes_with_any_nonempty_frontier(self):
        plane = _ResultPlane(8)
        plane.put(0, None)
        plane.put(1, [5])
        assert plane.cache.invalidate_nodes(np.array([], dtype=np.int64)) == 0
        assert plane.cache.invalidate_nodes(np.array([9])) == 1
        assert plane.get(0) is None and plane.get(1) is not None


class TestGatewayNumerics:
    def test_matches_sequential_predict_many(self, factory, dataset, registry):
        gateway = make_gateway(factory, dataset, registry, max_batch_size=8)
        model = factory()
        registry.load_into(model)
        sequential = OnlineModelServer(model, dataset, hops=2)
        shops = np.arange(20)  # crosses several flush boundaries
        batched = gateway.predict_many(shops)
        reference = sequential.predict_many(shops)
        assert [r.shop_index for r in batched] == shops.tolist()
        # Batches genuinely coalesced: 20 requests in 3 forwards (8+8+4).
        assert gateway.metrics.counter("batches_total") == 3
        assert max(r.batch_size for r in batched) == 8
        for got, want in zip(batched, reference):
            # The sequential server reports its whole ego; the gateway
            # the rows its forward read of it.
            assert got.subgraph_nodes == rows_read(dataset.graph,
                                                   got.shop_index)
            assert got.subgraph_nodes <= want.subgraph_nodes
            np.testing.assert_allclose(got.forecast, want.forecast, atol=1e-6)

    def test_admission_flag_selects_values_not_a_path(
            self, factory, dataset, registry):
        # One stream, both settings of GatewayConfig.admission (bound
        # and budget far out of reach), both ways of driving the loop:
        # bitwise-equal forecasts, equal batch compositions, no shed.
        shops = np.array([3, 17, 3, 8, 41, 0, 22, 8, 30, 11, 5, 49, 17, 2,
                          36, 9, 27, 14, 3, 45])
        bounded = dict(admission=True, max_queue_depth=64,
                       default_deadline_s=5 * 3600.0)

        def via_predict_many(gateway):
            return gateway.predict_many(shops)

        def via_submit_flush(gateway):
            requests = [gateway.submit(int(s)) for s in shops]
            gateway.flush()
            return [r.result() for r in requests]

        for drive in (via_predict_many, via_submit_flush):
            runs = []
            for kwargs in (dict(admission=False), bounded):
                gateway = make_gateway(factory, dataset, registry,
                                       max_batch_size=8, **kwargs)
                runs.append(drive(gateway))
                assert gateway.metrics.counter("requests_shed") == 0.0
                gateway.close()
            for off, on in zip(*runs):
                assert not off.shed and not on.shed
                assert off.forecast.tobytes() == on.forecast.tobytes()
                assert (off.batch_size, off.cached, off.subgraph_nodes) \
                    == (on.batch_size, on.cached, on.subgraph_nodes)

    def test_duplicate_requests_coalesce_into_one_compute(
            self, factory, dataset, registry):
        gateway = make_gateway(factory, dataset, registry, max_batch_size=8)
        responses = gateway.predict_many([5, 5, 5, 5])
        np.testing.assert_array_equal(responses[0].forecast,
                                      responses[1].forecast)
        # All four parked into one batch and none hit the result cache,
        # so one forward over one deduplicated component served them.
        assert not any(r.cached for r in responses)
        report = gateway.metrics_report()
        assert report["counters"]["batches_total"] == 1
        assert gateway.metrics.distribution("forward_rows").values().tolist() \
            == [rows_read(dataset.graph, 5)]

    def test_disjoint_batch_layout(self, dataset):
        centers = [0, 0, 3]
        layout = receptive_layout(dataset.graph, centers, 1, labelled=True)
        union = gather_batch(layout, centers, dataset.test)
        assert union.num_requests == 3
        # Centers first, in request order; a repeated center is two rows.
        assert union.center_rows.tolist() == [0, 1, 2]
        assert union.centers.tolist() == centers
        for row, center in zip(union.center_rows, centers):
            assert union.batch.series[row] == pytest.approx(
                dataset.test.series[center]
            )
        # Only what one layer reads of each center is kept ...
        egos = ego_subgraphs(dataset.graph, centers, hops=1)
        assert union.rows_within[0] == 3
        assert union.graph.num_nodes == union.batch.num_shops \
            == union.rows_within[-1] <= sum(e.num_nodes for e in egos)
        assert union.graph.num_edges == union.edges_into[-1]
        assert np.all(union.graph.dst < 3)          # every edge ends in a center
        # ... and each request's rows are what it reads alone.
        assert np.bincount(layout.labels).tolist() == [
            rows_read(dataset.graph, c) for c in centers]
        # No declared depth: the whole egos, component by component.
        whole = build_disjoint_batch(egos, dataset.test)
        assert whole.graph.num_nodes == sum(e.num_nodes for e in egos)
        assert whole.graph.num_edges == sum(e.subgraph.num_edges for e in egos)
        sizes = np.array([e.num_nodes for e in egos])
        offsets = np.cumsum(sizes) - sizes
        assert whole.center_rows.tolist() == [
            off + ego.center_local for off, ego in zip(offsets, egos)]

    def test_build_disjoint_batch_rejects_empty(self, dataset):
        with pytest.raises(ValueError):
            build_disjoint_batch([], dataset.test)
        # A layout of no centers is empty, not an error.
        empty = gather_batch(receptive_layout(dataset.graph, [], 1,
                                              labelled=True), [], dataset.test)
        assert empty.num_requests == 0 and empty.batch.num_shops == 0

    def test_submit_validates_range(self, factory, dataset, registry):
        gateway = make_gateway(factory, dataset, registry)
        with pytest.raises(IndexError):
            gateway.submit(dataset.graph.num_nodes)


class _WholeEgoModel(Module):
    """Declares no receptive depth; forecasts each row's own last inputs
    and remembers the shape of what it was handed."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def forward(self, batch, graph):
        self.seen.append((batch.num_shops, graph.num_nodes, graph.num_edges))
        return Tensor(batch.series_scaled[:, -batch.horizon:].copy())


class TestReceptiveServing:
    """The gateway extracts and computes what the model says it reads,
    and reports, tags and checks exactly those rows."""

    def test_forward_rows_metric_counts_computed_rows(self, factory, dataset,
                                                      registry):
        gateway = make_gateway(factory, dataset, registry, max_batch_size=8)
        assert gateway.model.receptive_depth == 1
        shops = list(range(8))
        responses = gateway.predict_many(shops)
        egos = ego_subgraphs(dataset.graph, shops, gateway.config.hops)
        kept = [rows_read(dataset.graph, shop) for shop in shops]
        rows = gateway.metrics_report()["distributions"]["forward_rows"]
        assert rows["count"] == 1 and rows["mean"] == sum(kept)
        # Responses report the rows read, the unit caches tag.
        assert [r.subgraph_nodes for r in responses] == kept
        assert sum(kept) < sum(ego.num_nodes for ego in egos)
        for shop in shops:
            entry = gateway.result_cache.get(shop, gateway.model_version)
            assert sorted(entry.nodes.tolist()) == sorted(
                receptive_layout(dataset.graph, [shop], 1).rows.tolist())
        assert len(gateway.subgraph_cache) == 0   # no ego was extracted
        gateway.close()

    def test_model_without_declared_depth_gets_whole_egos(self, dataset):
        gateway = make_gateway(_WholeEgoModel, dataset, max_batch_size=8)
        assert gateway.model.receptive_depth is None
        shops = [4, 9, 9, 17]
        responses = gateway.predict_many(shops)
        egos = ego_subgraphs(dataset.graph, [4, 9, 17], gateway.config.hops)
        assert gateway.model.seen == [(
            sum(ego.num_nodes for ego in egos),
            sum(ego.num_nodes for ego in egos),
            sum(ego.subgraph.num_edges for ego in egos),
        )]
        # center_rows located each shop's own row in the whole union.
        test = dataset.test
        for response in responses:
            shop = response.shop_index
            want = test.scaler.inverse_transform(
                test.series_scaled[shop, -test.horizon:], test.levels[shop])
            np.testing.assert_array_equal(response.forecast, want)
        rows = gateway.metrics.distribution("forward_rows")
        assert rows.values().tolist() == [gateway.model.seen[0][0]]
        gateway.close()

    def test_service_time_wrapper_is_handed_whole_egos(self, factory, dataset,
                                                       registry):
        """The wrapper declares nothing itself (it does not delegate the
        declaration), so simulated per-row costs charge ego rows."""
        from repro.obs.clock import FakeClock
        from repro.serving import ServiceTimeModel

        clock = FakeClock()
        gateway = ServingGateway(factory, dataset, registry, GatewayConfig(
            max_batch_size=4, max_wait=10.0), clock=clock.now)
        gateway.model = ServiceTimeModel(gateway.model, clock,
                                         per_forward_s=0.0, per_row_s=1.0)
        shops = [2, 6, 11, 30]
        before = clock.now()
        got = gateway.predict_many(shops)
        egos = ego_subgraphs(dataset.graph, shops, gateway.config.hops)
        assert clock.now() - before == sum(ego.num_nodes for ego in egos)
        trimmed = make_gateway(factory, dataset, registry, max_batch_size=4)
        for a, b in zip(got, trimmed.predict_many(shops)):
            np.testing.assert_allclose(a.forecast, b.forecast, rtol=1e-12)
        gateway.close()
        trimmed.close()


class TestGatewayCaching:
    def test_repeated_load_hits_result_cache(self, factory, dataset, registry):
        gateway = make_gateway(factory, dataset, registry)
        shops = np.arange(10)
        first = gateway.predict_many(shops)
        second = gateway.predict_many(shops)
        assert not any(r.cached for r in first)
        assert all(r.cached for r in second)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.forecast, b.forecast)
        assert gateway.metrics.cache_hit_rate() == pytest.approx(0.5)

    def test_publish_invalidates_result_cache(self, factory, dataset):
        registry = ModelRegistry()
        model_v1 = factory()
        registry.publish(model_v1, trained_at_month=28)
        gateway = make_gateway(factory, dataset, registry)
        before = gateway.predict(7)
        assert before.model_version == 1

        model_v2 = factory()
        model_v2.w_p.data = model_v2.w_p.data + 0.5
        registry.publish(model_v2, trained_at_month=29)

        assert len(gateway.result_cache) == 0  # purged on publish
        after = gateway.predict(7)
        assert after.model_version == 2
        assert not after.cached
        # And the new forecast matches the sequential path on v2 weights.
        sequential = OnlineModelServer(model_v2, dataset, hops=2)
        np.testing.assert_allclose(
            after.forecast, sequential.predict(7).forecast, atol=1e-6
        )
        assert gateway.metrics.counter("model_swaps") == 1

    def test_graph_change_invalidates_subgraph_cache(
            self, whole_ego_factory, dataset, registry):
        gateway = make_gateway(whole_ego_factory, dataset, registry)
        gateway.predict_many(np.arange(6))
        assert len(gateway.subgraph_cache) > 0
        epoch = gateway.subgraph_cache.epoch
        gateway.notify_graph_changed()
        assert len(gateway.subgraph_cache) == 0
        assert len(gateway.result_cache) == 0
        assert gateway.subgraph_cache.epoch == epoch + 1
        assert gateway.metrics.counter("graph_invalidations") == 1

    def test_close_detaches_from_registry(self, factory, dataset):
        registry = ModelRegistry()
        registry.publish(factory(), trained_at_month=28)
        gateway = make_gateway(factory, dataset, registry)
        gateway.close()
        gateway.close()  # idempotent
        registry.publish(factory(), trained_at_month=29)
        # Closed gateways no longer hot-swap on publish.
        assert gateway.model_version == 1
        assert gateway.metrics.counter("model_swaps") == 0

    def test_subgraph_cache_reused_across_versions(
            self, factory, whole_ego_factory, dataset):
        registry = ModelRegistry()
        registry.publish(factory(), trained_at_month=28)
        gateway = make_gateway(whole_ego_factory, dataset, registry)
        gateway.predict(3)
        counter = gateway.metrics.counter
        assert (counter("subgraph_cache_hits"),
                counter("subgraph_cache_misses")) == (0, 1)
        registry.publish(factory(), trained_at_month=29)
        gateway.predict(3)
        # The ego-subgraph did not change with the weights: the second
        # version's miss on the result cache is a subgraph-cache hit.
        assert (counter("subgraph_cache_hits"),
                counter("subgraph_cache_misses")) == (1, 1)
        assert counter("cache_misses") == 2

    @pytest.mark.parametrize("attached", [False, True])
    def test_full_batch_of_cached_egos_served_after_publish(
            self, factory, whole_ego_factory, dataset, attached):
        """A publish purges every result and keeps every ego, so the
        re-asked batch of a model served whole egos reaches extraction
        with nothing left to extract — an empty ``ego_subgraphs`` call,
        on the static graph and on an attached overlay alike."""
        registry = ModelRegistry()
        registry.publish(factory(), trained_at_month=28)
        gateway = make_gateway(whole_ego_factory, dataset, registry)
        if attached:
            dyn = DynamicGraph(dataset.graph, compact_threshold=None)
            dyn.add_edge(0, 9, 1)
            dyn.retire_edge(int(dataset.graph.src[0]), int(dataset.graph.dst[0]),
                            int(dataset.graph.edge_types[0]))
            gateway.attach_stream(dyn)
        shops = np.arange(8)                    # one full batch
        first = gateway.predict_many(shops)
        misses = gateway.metrics.counter("subgraph_cache_misses")
        assert misses == len(shops)
        registry.publish(factory(), trained_at_month=29)
        assert len(gateway.result_cache) == 0
        second = gateway.predict_many(shops)
        assert [r.model_version for r in second] == [2] * len(shops)
        assert not any(r.cached for r in second)
        assert gateway.metrics.counter("requests_failed") == 0
        assert gateway.metrics.counter("subgraph_cache_misses") == misses
        assert gateway.metrics.counter("subgraph_cache_hits") == len(shops)
        for a, b in zip(first, second):         # same weights, same egos
            np.testing.assert_array_equal(a.forecast, b.forecast)
        gateway.close()


class _RefStateModel(Module):
    """Model whose state_dict leaks references (worst-case publisher)."""

    def __init__(self):
        super().__init__()
        self.w = Parameter(np.ones(3), name="w")

    def state_dict(self):
        return {"w": self.w.data}  # no copy on purpose


class TestRegistry:
    def test_publish_snapshots_even_reference_state(self):
        model = _RefStateModel()
        registry = ModelRegistry()
        version = registry.publish(model, trained_at_month=1)
        model.w.data += 100.0
        np.testing.assert_array_equal(version.state["w"], np.ones(3))

    def test_subscribe_and_unsubscribe(self, factory):
        registry = ModelRegistry()
        seen = []
        registry.subscribe(seen.append)
        registry.publish(factory(), trained_at_month=28)
        assert [v.version for v in seen] == [1]
        registry.unsubscribe(seen.append)
        registry.publish(factory(), trained_at_month=29)
        assert [v.version for v in seen] == [1]


class TestThinClientServer:
    def test_bounded_request_log(self, factory, dataset):
        server = OnlineModelServer(factory(), dataset, hops=1, max_log=5)
        server.predict_many(np.arange(9))
        assert len(server.request_log) == 5
        assert server.total_requests == 9
        assert server.latency_summary()["count"] == 5.0

    def test_invalid_max_log(self, factory, dataset):
        with pytest.raises(ValueError):
            OnlineModelServer(factory(), dataset, max_log=0)


class TestMetrics:
    def test_rolling_percentiles(self):
        metrics = MetricsRegistry(window=16)
        for value in range(1, 101):
            metrics.observe("latency_seconds", float(value))
        summary = metrics.distribution("latency_seconds").summary()
        # `count` covers the same retained population as the
        # percentiles; `total` keeps the lifetime figure.
        assert summary["count"] == 16.0
        assert summary["total"] == 100.0
        # Only the freshest 16 observations are retained.
        assert summary["p50"] >= 85.0
        assert summary["p99"] <= 100.0
        assert summary["mean"] * summary["count"] == sum(range(85, 101))

    def test_snapshot_shape(self, factory, dataset, registry):
        gateway = make_gateway(factory, dataset, registry)
        gateway.predict_many(np.arange(12))
        report = gateway.metrics_report()
        assert report["qps"] > 0
        assert 0.0 < report["batch_occupancy"] <= 1.0
        assert report["counters"]["requests_total"] == 12
        assert report["serving_version"] == registry.latest().version
        latency = report["distributions"]["latency_seconds"]
        assert latency["p99"] >= latency["p50"] >= 0.0


class TestLoadGenerator:
    def test_deterministic_streams(self):
        gen = LoadGenerator(num_shops=100, seed=3)
        a = gen.generate("zipf", 50)
        b = LoadGenerator(num_shops=100, seed=3).generate("zipf", 50)
        np.testing.assert_array_equal(a, b)

    def test_patterns_in_range(self):
        gen = LoadGenerator(num_shops=30, seed=1)
        for pattern in ("uniform", "zipf", "repeating"):
            stream = gen.generate(pattern, 40, working_set=10)
            assert stream.shape == (40,)
            assert stream.min() >= 0 and stream.max() < 30

    def test_repeating_cycles_working_set(self):
        stream = LoadGenerator(num_shops=50, seed=2).generate(
            "repeating", 30, working_set=10
        )
        assert len(np.unique(stream)) == 10
        np.testing.assert_array_equal(stream[:10], stream[10:20])

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            LoadGenerator(10).generate("bursty", 5)

    def test_run_load_report(self, factory, dataset, registry):
        gateway = make_gateway(factory, dataset, registry)
        stream = LoadGenerator(dataset.graph.num_nodes, seed=5).generate(
            "repeating", 24, working_set=8
        )
        report = run_load(gateway.predict_many, stream, pattern="repeating")
        assert report.num_requests == 24
        assert report.throughput_rps > 0
        assert report.latency["p95"] >= report.latency["p50"]
        data = report.to_dict()
        assert data["pattern"] == "repeating"


# ----------------------------------------------------------------------
# PR 1 regression gaps (ISSUE 2): mutation mid-flight, hot swaps under
# load, duplicate-row subset unions
# ----------------------------------------------------------------------
def _with_extra_edges(dataset, num_extra=8, seed=91):
    """Copy of ``dataset`` whose graph gained random extra edges."""
    import dataclasses

    from repro.graph import ESellerGraph

    graph = dataset.graph
    rng = np.random.default_rng(seed)
    extra_src = rng.integers(0, graph.num_nodes, size=num_extra)
    extra_dst = rng.integers(0, graph.num_nodes, size=num_extra)
    mutated = ESellerGraph(
        graph.num_nodes,
        np.concatenate([graph.src, extra_src]),
        np.concatenate([graph.dst, extra_dst]),
        np.concatenate([graph.edge_types, np.zeros(num_extra, dtype=np.int64)]),
    )
    return dataclasses.replace(dataset, graph=mutated)


class TestGraphMutationMidFlight:
    def test_parked_requests_see_mutated_graph(self, factory, dataset, registry):
        """Requests parked in the batcher when the graph mutates must be
        served from the NEW topology, not from memoised subgraphs."""
        mutated = _with_extra_edges(dataset)
        gateway = make_gateway(factory, dataset, registry)
        shop = 7
        # Warm the subgraph + result caches on the old topology.
        stale = gateway.predict(shop)
        # Requests park; then the graph mutates mid-flight.
        parked = [gateway.submit(shop), gateway.submit(shop + 1)]
        gateway.dataset = mutated
        gateway.source_batch = mutated.test
        gateway.notify_graph_changed()
        assert len(gateway.subgraph_cache) == 0
        assert len(gateway.result_cache) == 0
        gateway.flush()
        served = parked[0].result()
        # Reference: a fresh gateway that only ever saw the new graph.
        reference = make_gateway(factory, mutated, registry)
        expected = reference.predict(shop)
        np.testing.assert_allclose(served.forecast, expected.forecast,
                                   atol=1e-10)
        assert served.subgraph_nodes == expected.subgraph_nodes
        # The mutation added edges through shop 7's neighborhood, so the
        # stale pre-mutation answer must differ (graph signal is real).
        assert served.subgraph_nodes != stale.subgraph_nodes or not np.allclose(
            served.forecast, stale.forecast
        )
        gateway.close()
        reference.close()

    def test_epoch_advances_per_mutation(self, factory, dataset):
        gateway = make_gateway(factory, dataset)
        before = gateway.subgraph_cache.epoch
        gateway.notify_graph_changed()
        gateway.notify_graph_changed()
        assert gateway.subgraph_cache.epoch == before + 2
        gateway.close()


class TestHotSwapUnderLoad:
    def test_publish_hot_swaps_model_and_version(self, factory, dataset):
        registry = ModelRegistry()
        registry.publish(factory(), trained_at_month=28)
        gateway = make_gateway(factory, dataset, registry)
        assert gateway.model_version == 1
        model_v2 = factory()
        model_v2.w_p.data = model_v2.w_p.data + 0.5
        registry.publish(model_v2, trained_at_month=29)
        assert gateway.model_version == 2
        np.testing.assert_array_equal(gateway.model.w_p.data,
                                      model_v2.w_p.data)
        gateway.close()

    def test_publish_mid_flight_serves_new_version(self, factory, dataset):
        """A publish while requests are parked hot-swaps the model first;
        the drained batch is scored by the new version only."""
        registry = ModelRegistry()
        registry.publish(factory(), trained_at_month=28)
        gateway = make_gateway(factory, dataset, registry)
        old_version = gateway.model_version
        parked = [gateway.submit(i) for i in range(4)]
        registry.publish(factory(), trained_at_month=29)  # mid-flight swap
        gateway.flush()
        for request in parked:
            assert request.result().model_version == old_version + 1
        assert gateway.model_version == old_version + 1
        gateway.close()

    def test_incompatible_publish_changes_nothing(self, factory, dataset,
                                                  gaia_config):
        """A version the serving model cannot hold raises out of
        ``publish`` and leaves weights, version and cache untouched —
        the gateway must not serve a model that is neither version."""
        import dataclasses

        registry = ModelRegistry()
        registry.publish(factory(), trained_at_month=28)
        gateway = make_gateway(factory, dataset, registry)
        shops = np.arange(6)
        before = gateway.predict_many(shops)
        wider = Gaia(dataclasses.replace(gaia_config,
                                         horizon=gaia_config.horizon + 1),
                     seed=1)
        with pytest.raises(ValueError, match="shape mismatch"):
            registry.publish(wider, trained_at_month=29)
        assert gateway.metrics_report()["serving_version"] == 1
        assert gateway.metrics.counter("model_swaps") == 0
        gateway.notify_graph_changed()          # force a recompute
        after = gateway.predict_many(shops)
        for a, b in zip(before, after):
            assert not b.cached and b.model_version == 1
            np.testing.assert_array_equal(a.forecast, b.forecast)
        gateway.close()


class TestSubsetDuplicateRows:
    def test_duplicate_indices_repeat_rows(self, dataset):
        batch = dataset.test
        indices = np.array([3, 3, 0, 7, 3])
        sub = batch.subset(indices)
        assert sub.num_shops == 5
        np.testing.assert_array_equal(sub.series, batch.series[indices])
        np.testing.assert_array_equal(sub.labels, batch.labels[indices])
        np.testing.assert_array_equal(sub.levels, batch.levels[indices])
        # fancy indexing copies: mutating one duplicate row leaves the
        # others (and the source batch) untouched
        sub.series[0, 0] = -123.0
        assert batch.series[3, 0] != -123.0
        assert sub.series[1, 0] != -123.0

    def test_overlapping_union_rows_match_components(self, dataset):
        """A disjoint union over overlapping reaches repeats shared rows
        so every component stays self-contained: level by level, each
        request contributes its own copy of what its center reads."""
        # A reader and the shop it reads: the second is a center of its
        # own and a level-1 row of the first's.
        reader, read = int(dataset.graph.dst[0]), int(dataset.graph.src[0])
        assert reader != read
        graph = dataset.graph
        levels = [receptive_levels_oracle(graph.src, graph.dst,
                                          graph.num_nodes, [center], 2)
                  for center in (reader, read)]
        expected = np.concatenate([
            np.flatnonzero(level == depth)
            for depth in range(3) for level in levels
        ])
        union = gather_batch(
            receptive_layout(graph, [reader, read], 2, labelled=True),
            [reader, read], dataset.test)
        np.testing.assert_array_equal(union.batch.series,
                                      dataset.test.series[expected])
        assert np.unique(expected).size < expected.size, \
            "the two reaches share no shop: the test checks nothing"
        # Whole egos: the shared shop sits at its own offset in each.
        egos = ego_subgraphs(graph, [reader, read], hops=2)
        whole = build_disjoint_batch(egos, dataset.test)
        shared = np.intersect1d(egos[0].nodes, egos[1].nodes)
        offset = egos[0].num_nodes
        for node in shared:
            row_a = int(np.searchsorted(egos[0].nodes, node))
            row_b = offset + int(np.searchsorted(egos[1].nodes, node))
            np.testing.assert_array_equal(
                whole.batch.series[row_a], whole.batch.series[row_b]
            )

    def test_out_of_range_subset_rejected(self, dataset):
        batch = dataset.test
        with pytest.raises(IndexError):
            batch.subset(np.array([0, batch.num_shops]))
        with pytest.raises(IndexError):
            batch.subset(np.array([-1]))
