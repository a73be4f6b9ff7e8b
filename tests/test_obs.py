"""Tests for the observability plane (repro.obs).

Covers the ISSUE-6 satellite checklist: span-tree determinism under a
fake clock, profile-report stability across replays of one plan, hub
namespace collision rejection, exporter round-trips, the no-op-tracer
overhead micro-test, and the rolling-window QPS estimator.
"""

import json
import time

import numpy as np
import pytest

from repro.core import Gaia, GaiaConfig
from repro.data import MarketplaceConfig, build_dataset, build_marketplace
from repro.nn import engine
from repro.nn.tensor import Tensor
from repro.obs import (
    FakeClock,
    KernelProfiler,
    MetricsHub,
    NULL_TRACER,
    Tracer,
    estimate_cost,
    get_tracer,
    profile_kernels,
    use_clock,
    use_tracer,
)
from repro.obs import clock as obs_clock
from repro.obs import tracing as obs_tracing
from repro.serving import GatewayConfig, MetricsRegistry, MicroBatcher, ServingGateway

pytestmark = pytest.mark.obs


# ----------------------------------------------------------------------
# clock
# ----------------------------------------------------------------------
class TestClock:
    def test_fake_clock_moves_only_on_advance(self):
        clock = FakeClock(start=5.0)
        assert clock.now() == 5.0
        assert clock.now() == 5.0
        clock.advance(2.0)
        assert clock.now() == 7.0
        assert clock.tick(0.5) == 7.5

    def test_fake_clock_rejects_backwards(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)

    def test_wall_time_moves_in_lockstep(self):
        clock = FakeClock(start=0.0, epoch=1000.0)
        clock.advance(3.0)
        assert clock.wall_time() == 1003.0

    def test_use_clock_installs_and_restores(self):
        fake = FakeClock(start=100.0)
        before = obs_clock.get_clock()
        with use_clock(fake):
            assert obs_clock.now() == 100.0
            fake.advance(1.0)
            assert obs_clock.now() == 101.0
        assert obs_clock.get_clock() is before

    def test_module_level_now_rereads_installed_clock(self):
        # Components that captured obs_clock.now as their default clock
        # at construction time must still see a later-installed fake.
        reader = obs_clock.now
        with use_clock(FakeClock(start=42.0)):
            assert reader() == 42.0


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def _record_tree(clock):
    tracer = Tracer(clock=clock.now)
    with tracer.span("request"):
        with tracer.span("extract"):
            clock.advance(0.002)
        with tracer.span("forward", batch=4):
            clock.advance(0.006)
    return tracer


class TestTracer:
    def test_span_tree_is_deterministic_under_fake_clock(self):
        first = _record_tree(FakeClock())
        second = _record_tree(FakeClock())
        assert first.format_tree() == second.format_tree()
        assert first.chrome_trace() == second.chrome_trace()
        root = first.roots[0]
        assert root.duration == pytest.approx(0.008)
        assert root.find("extract").duration == pytest.approx(0.002)
        assert root.find("forward").duration == pytest.approx(0.006)

    def test_chrome_trace_events_are_complete_events(self):
        tracer = _record_tree(FakeClock())
        events = json.loads(tracer.to_chrome_json())
        assert [e["name"] for e in events] == ["request", "extract", "forward"]
        assert all(e["ph"] == "X" for e in events)
        forward = events[2]
        assert forward["dur"] == pytest.approx(6000.0)  # microseconds
        assert forward["args"] == {"batch": 4}

    def test_decorator_api_records_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock.now)

        @tracer.wrap("work")
        def work():
            clock.advance(1.0)
            return "done"

        assert work() == "done"
        assert work.__name__ == "work"
        assert len(tracer.roots) == 1
        assert tracer.roots[0].name == "work"
        assert tracer.roots[0].duration == pytest.approx(1.0)

    def test_record_attaches_retroactive_interval(self):
        clock = FakeClock(start=10.0)
        tracer = Tracer(clock=clock.now)
        with tracer.span("batch"):
            tracer.record("queue_wait", start=8.0, end=10.0, shop=3)
            clock.advance(0.5)
        root = tracer.roots[0]
        wait = root.find("queue_wait")
        assert wait is not None
        assert wait.duration == pytest.approx(2.0)
        assert wait.meta == {"shop": 3}

    def test_exception_pops_unclosed_descendants(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock.now)
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                inner = tracer.span("inner")
                inner.__enter__()
                raise RuntimeError("boom")
        # The outer span closed through the orphaned inner one; the
        # stack is empty and the tree is complete.
        assert tracer._stack == []
        assert len(tracer.roots) == 1
        assert tracer.roots[0].find("inner") is not None

    def test_max_roots_bounds_memory(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock.now, max_roots=3)
        for i in range(7):
            with tracer.span(f"r{i}"):
                clock.advance(0.001)
        assert [r.name for r in tracer.roots] == ["r4", "r5", "r6"]

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer(clock=FakeClock().now)
        assert get_tracer() is NULL_TRACER
        with use_tracer(tracer):
            assert get_tracer() is tracer
            assert obs_tracing.tracing_enabled()
        assert get_tracer() is NULL_TRACER
        assert not obs_tracing.tracing_enabled()

    def test_null_tracer_is_stateless_and_empty(self):
        handle_a = NULL_TRACER.span("a", shop=1)
        handle_b = NULL_TRACER.span("b")
        assert handle_a is handle_b  # one shared null handle, no allocation
        with handle_a:
            pass
        assert NULL_TRACER.format_tree() == ""
        assert NULL_TRACER.chrome_trace() == []
        assert NULL_TRACER.to_chrome_json() == "[]"

    def test_null_span_overhead_is_negligible(self):
        # The tier-1 overhead micro-test: a disabled instrumentation
        # point must cost well under 10us (the benchmark gate holds the
        # end-to-end paths under 2%; this catches gross regressions like
        # an accidental allocation or clock read on the null path).
        span = obs_tracing.span
        iterations = 20_000
        started = time.perf_counter()
        for _ in range(iterations):
            with span("hot"):
                pass
        per_span = (time.perf_counter() - started) / iterations
        assert per_span < 10e-6


# ----------------------------------------------------------------------
# kernel profiling
# ----------------------------------------------------------------------
class TestProfiling:
    def test_estimate_cost_matmul(self):
        flops, bytes_moved = estimate_cost("matmul", [(8, 4), (4, 3)], (8, 3))
        assert flops == 2.0 * 8 * 3 * 4
        assert bytes_moved == 8.0 * (8 * 4 + 4 * 3 + 8 * 3)
        bw_flops, bw_bytes = estimate_cost(
            "matmul", [(8, 4), (4, 3)], (8, 3), phase="backward"
        )
        assert bw_flops == 2.0 * flops
        assert bw_bytes == 2.0 * bytes_moved

    def _compiled_loss(self):
        w = Tensor(np.random.default_rng(0).normal(size=(6, 4)),
                   requires_grad=True)
        x = np.random.default_rng(1).normal(size=(5, 6))

        def loss_fn():
            return ((Tensor(x) @ w) ** 2.0).mean()

        return engine.CompiledLoss(loss_fn), w

    def test_profile_report_stable_across_replays(self):
        compiled, w = self._compiled_loss()
        compiled.run()  # trace + compile outside profiling
        with profile_kernels() as profiler:
            for _ in range(4):
                w.grad = None
                compiled.run()
        report = profiler.report()
        assert report["replays"] == 4
        by_kernel = {(r["op"], r["phase"]): r for r in report["kernels"]}
        # Every profiled kernel was called exactly once per replay, and
        # the static cost attribution scales linearly with replays.
        for row in report["kernels"]:
            assert row["calls"] == 4
            assert row["flops"] > 0 or row["op"] in ("reshape", "getitem")
        matmul = by_kernel[("matmul", "forward")]
        assert matmul["flops"] == 4 * 2.0 * 5 * 4 * 6
        # Installed again, the same profiler adds the same counts.
        with profile_kernels(profiler):
            for _ in range(4):
                w.grad = None
                compiled.run()
        again = profiler.report()
        assert again["replays"] == 8
        for row in again["kernels"]:
            assert row["calls"] == 8
        assert again["total_flops"] == pytest.approx(2 * report["total_flops"])

    def test_profile_accounts_for_replay_wall_time(self):
        compiled, w = self._compiled_loss()
        compiled.run()
        with profile_kernels() as profiler:
            for _ in range(10):
                w.grad = None
                compiled.run()
        report = profiler.report()
        assert report["replays"] == 10
        assert 0.0 < report["coverage"] <= 1.0
        assert report["total_seconds"] <= report["replay_seconds"]
        # Under a fake clock (each reading ticks it) the closing read is
        # charged to no row, so the rows undershoot the replay by
        # exactly one tick per phase.
        with profile_kernels(KernelProfiler(clock=FakeClock().tick)) as ticked:
            for _ in range(3):
                w.grad = None
                compiled.run()
        report = ticked.report()
        assert report["replays"] == 3
        assert report["total_seconds"] == report["replay_seconds"] - 2 * 3

    def test_one_profiler_sums_the_plans_it_observes(self):
        """The profile of one plan is a fresh profiler around its
        replays; one profiler around both plans holds exactly the sum,
        deterministically under a fake clock (each reading ticks it)."""
        def rows(profiler):
            return {(r["op"], r["phase"]):
                    (r["calls"], r["seconds"], r["flops"], r["bytes"])
                    for r in profiler.report()["kernels"]}

        def replay(compiled, w, times):
            for _ in range(times):
                w.grad = None
                compiled.run()

        (first, w1), (second, w2) = self._compiled_loss(), self._compiled_loss()
        for compiled in (first, second):
            compiled.run()
        with profile_kernels(KernelProfiler(clock=FakeClock().tick)) as mine:
            replay(first, w1, 3)
        with profile_kernels(KernelProfiler(clock=FakeClock().tick)) as theirs:
            replay(second, w2, 2)
        with profile_kernels(KernelProfiler(clock=FakeClock().tick)) as both:
            replay(first, w1, 3)
            replay(second, w2, 2)
        assert both.replays == mine.replays + theirs.replays == 5
        mine, theirs = rows(mine), rows(theirs)
        total = rows(both)
        assert set(total) == set(mine) | set(theirs)
        for key, row in total.items():
            summed = tuple(a + b for a, b in zip(mine.get(key, (0,) * 4),
                                                 theirs.get(key, (0,) * 4)))
            assert row == pytest.approx(summed)

    def test_report_top_k_sorted_by_seconds(self):
        compiled, w = self._compiled_loss()
        compiled.run()
        with profile_kernels() as profiler:
            w.grad = None
            compiled.run()
        rows = profiler.report(top=3)["kernels"]
        assert len(rows) == 3
        assert rows[0]["seconds"] >= rows[1]["seconds"] >= rows[2]["seconds"]

    def test_profiler_uninstalled_after_context(self):
        assert engine.kernel_profiler() is None
        with profile_kernels() as profiler:
            assert engine.kernel_profiler() is profiler
        assert engine.kernel_profiler() is None

    def test_unprofiled_runs_record_nothing(self):
        compiled, w = self._compiled_loss()
        compiled.run()
        with profile_kernels() as profiler:
            w.grad = None
            compiled.run()
        before = profiler.report()
        assert before["replays"] == 1
        w.grad = None
        compiled.run()  # no profiler installed: nothing observes it
        assert profiler.report() == before


# ----------------------------------------------------------------------
# engine spans: every CompiledLoss.run is one engine.step
# ----------------------------------------------------------------------
class TestEngineSpans:
    def _run(self, loss_fn, runs):
        tracer = Tracer(clock=FakeClock().tick)
        compiled = engine.CompiledLoss(loss_fn)
        with use_tracer(tracer):
            for _ in range(runs):
                compiled.run()
        assert [root.name for root in tracer.roots] == ["engine.step"] * runs
        return compiled, [
            [child.name for child in root.children] for root in tracer.roots
        ]

    def test_first_run_is_a_step_with_one_compile_child(self):
        w = Tensor(np.random.default_rng(0).normal(size=(6, 4)),
                   requires_grad=True)
        x = np.random.default_rng(1).normal(size=(5, 6))
        compiled, children = self._run(
            lambda: ((Tensor(x) @ w) ** 2.0).mean(), runs=4)
        assert compiled.fallback_reason == ""
        assert children == [["engine.compile"], [], [], []]

    def test_dynamic_loss_compiles_once_then_steps_eagerly(self):
        from repro.nn import functional as F

        w = Tensor(np.random.default_rng(0).normal(size=(6, 4)),
                   requires_grad=True)
        x = np.random.default_rng(1).normal(size=(5, 6))
        gen = np.random.default_rng(2)

        def loss_fn():
            h = F.dropout(Tensor(x) @ w, rate=0.5, rng=gen)
            return (h * h).mean()

        compiled, children = self._run(loss_fn, runs=3)
        assert compiled.fallback_reason.startswith("dynamic trace")
        assert children == [["engine.compile"], [], []]


# ----------------------------------------------------------------------
# metrics hub
# ----------------------------------------------------------------------
class TestMetricsHub:
    def test_namespace_collision_rejected(self):
        hub = MetricsHub()
        hub.register_source("serving", lambda: {})
        with pytest.raises(ValueError, match="already registered"):
            hub.register_source("serving", lambda: {})
        with pytest.raises(ValueError, match="already registered"):
            hub.attach_registry(MetricsRegistry(), namespace="serving")
        with pytest.raises(ValueError, match="non-empty"):
            hub.register_source("", lambda: {})

    def test_collect_normalises_kinds(self):
        hub = MetricsHub()
        hub.register_source("s", lambda: {
            "plain": 1.5,
            "count": {"kind": "counter", "value": 3},
            "dist": {"kind": "histogram",
                     "summary": {"count": 2, "mean": 0.5, "p50": 0.5,
                                 "p95": 0.9, "p99": 0.9}},
        })
        rows = {r["name"]: r for r in hub.collect()}
        assert rows["plain"]["kind"] == "gauge"
        assert rows["count"]["kind"] == "counter"
        assert rows["count"]["value"] == 3.0
        assert rows["dist"]["kind"] == "histogram"
        assert rows["dist"]["value"]["p95"] == 0.9

    def test_bad_kind_rejected_at_collect(self):
        hub = MetricsHub()
        hub.register_source("s", lambda: {"x": {"kind": "timer", "value": 1}})
        with pytest.raises(ValueError, match="unknown kind"):
            hub.collect()

    def test_prometheus_export_format(self):
        hub = MetricsHub()
        registry = MetricsRegistry()
        registry.inc("requests_total", 7)
        registry.observe("latency", 0.25)
        hub.attach_registry(registry, namespace="serving.gw")
        hub.register_source("app", lambda: {"depth": 12.5})
        text = hub.to_prometheus()
        assert "# TYPE serving_gw_requests_total counter" in text
        assert "serving_gw_requests_total 7" in text
        assert "# TYPE serving_gw_qps gauge" in text
        assert "# TYPE app_depth gauge" in text
        assert "app_depth 12.5" in text
        assert "# TYPE serving_gw_latency summary" in text
        assert 'serving_gw_latency{quantile="0.95"} 0.25' in text
        assert "serving_gw_latency_count 1" in text

    def test_histogram_count_is_window_scoped_total_lifetime(self):
        hub = MetricsHub()
        registry = MetricsRegistry(window=4)
        for value in range(10):
            registry.observe("seconds", float(value))
        hub.attach_registry(registry, namespace="lat")
        row = next(r for r in hub.collect() if r["name"] == "seconds")
        # ``count`` matches what mean/percentiles were computed over
        # (the retained ring); ``total`` is the monotone lifetime tally.
        assert row["value"]["count"] == 4.0
        assert row["value"]["total"] == 10.0
        assert row["value"]["mean"] == pytest.approx(7.5)
        text = hub.to_prometheus()
        assert "lat_seconds_count 4" in text
        assert "# TYPE lat_seconds_observations_total counter" in text
        assert "lat_seconds_observations_total 10" in text

    def test_attach_registry_federates_gateway_metrics(self):
        clock = FakeClock()
        with use_clock(clock):
            registry = MetricsRegistry(window=16)
            for _ in range(4):
                clock.advance(0.25)
                registry.record_request()
            registry.observe("latency_seconds", 0.01)
            hub = MetricsHub()
            hub.attach_registry(registry, namespace="serving")
            rows = {f"{r['namespace']}.{r['name']}": r for r in hub.collect()}
        assert rows["serving.requests_total"]["kind"] == "counter"
        assert rows["serving.requests_total"]["value"] == 4.0
        assert rows["serving.qps"]["kind"] == "gauge"
        assert rows["serving.qps_lifetime"]["kind"] == "gauge"
        assert rows["serving.latency_seconds"]["kind"] == "histogram"

    def test_attach_streaming_uses_freshness_report(self):
        class FakeStore:
            def freshness_report(self):
                return {"frontier": 30, "watermark": 28, "ticks_applied": 12,
                        "late_ticks_accepted": 2, "ticks_dropped": 1,
                        "unset": None}

        hub = MetricsHub()
        hub.attach_streaming(FakeStore(), namespace="stream")
        rows = {r["name"]: r for r in hub.collect()}
        assert rows["ticks_applied"]["kind"] == "counter"
        assert rows["frontier"]["kind"] == "gauge"
        assert "unset" not in rows


# ----------------------------------------------------------------------
# rolling QPS + deterministic latency plumbing
# ----------------------------------------------------------------------
class TestRollingQps:
    def test_rolling_qps_tracks_recent_load_not_lifetime(self):
        clock = FakeClock()
        with use_clock(clock):
            registry = MetricsRegistry(window=16)
            # A 10 rps burst...
            for _ in range(20):
                clock.advance(0.1)
                registry.record_request()
            burst_qps = registry.qps()
            # ...then a long idle gap: the lifetime average collapses,
            # while the ring ages the gap out as fresh requests arrive.
            clock.advance(1000.0)
            for _ in range(20):
                clock.advance(0.1)
                registry.record_request()
            qps = registry.qps()
            lifetime = registry.qps_lifetime()
        assert burst_qps == pytest.approx(10.0)
        assert lifetime < 0.05  # 40 requests over ~1004 seconds
        assert qps == pytest.approx(10.0)  # only the fresh burst remains

    def test_qps_zero_until_window_spans_time(self):
        clock = FakeClock()
        with use_clock(clock):
            registry = MetricsRegistry(window=16)
            registry.record_request()
            # One timestamp and a frozen clock: no measurable span yet.
            # The old 1e-9 clamp reported ~1e9 QPS here.
            assert registry.qps() == 0.0
            registry.record_request()  # same instant: span is still zero
            assert registry.qps() == 0.0
            clock.advance(0.5)
            registry.record_request()
            assert registry.qps() == pytest.approx((3 - 1) / 0.5)

    def test_rolling_qps_recovers_after_window_ages_out(self):
        clock = FakeClock()
        with use_clock(clock):
            registry = MetricsRegistry(window=8)
            for _ in range(8):
                clock.advance(100.0)
                registry.record_request()
            # Fill the window with a fresh 50 rps burst.
            for _ in range(8):
                clock.advance(0.02)
                registry.record_request()
            assert registry.qps() == pytest.approx(50.0)

    def test_qps_zero_without_requests(self):
        with use_clock(FakeClock()):
            registry = MetricsRegistry()
            assert registry.qps() == 0.0
            assert registry.qps_lifetime() == 0.0

    def test_snapshot_reports_both_estimators(self):
        clock = FakeClock()
        with use_clock(clock):
            registry = MetricsRegistry()
            clock.advance(2.0)
            registry.record_request()
            snapshot = registry.snapshot()
        assert "qps" in snapshot and "qps_lifetime" in snapshot
        assert snapshot["qps_lifetime"] == pytest.approx(0.5)

    def test_microbatcher_deadline_under_fake_clock(self):
        clock = FakeClock()
        with use_clock(clock):
            batcher = MicroBatcher(max_batch_size=8, max_wait=0.5)
            batcher.submit(0)
            assert not batcher.due()
            clock.advance(0.4)
            assert not batcher.due()
            clock.advance(0.2)
            assert batcher.due()


# ----------------------------------------------------------------------
# the instrumented request path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def gateway_parts():
    market = build_marketplace(MarketplaceConfig(num_shops=30, seed=11))
    dataset = build_dataset(market, train_fraction=0.6, val_fraction=0.2)
    config = GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
        channels=8,
        num_scales=2,
        num_layers=1,
    )
    return dataset, (lambda: Gaia(config, seed=0))


class TestRequestPathTracing:
    def test_single_request_produces_connected_span_tree(self, gateway_parts):
        dataset, factory = gateway_parts
        gateway = ServingGateway(
            factory, dataset,
            config=GatewayConfig(max_batch_size=4, max_wait=10.0),
        )
        tracer = Tracer()
        try:
            with use_tracer(tracer):
                response = gateway.predict(3)
        finally:
            gateway.close()
        assert response.shop_index == 3
        assert len(tracer.roots) == 1  # one request, one connected tree
        root = tracer.roots[0]
        assert root.name == "gateway.request"
        for stage in ("gateway.admission", "gateway.serve_batch",
                      "gateway.queue_wait", "gateway.extract",
                      "gateway.batch_assembly", "gateway.forward"):
            assert root.find(stage) is not None, f"missing span {stage}"
        # queue -> batch -> extract -> forward all hang off the same
        # serve_batch subtree.
        serve = root.find("gateway.serve_batch")
        assert serve.find("gateway.queue_wait").meta == {"shop": 3}
        assert serve.find("gateway.forward") is not None
        # An integer-depth model: extract wraps the in-edge traversal and
        # batch_assembly the row gather, one of each, in that order and
        # before the forward.
        assert gateway.model.receptive_depth == 1
        batch_spans = [child.name for child in serve.children
                       if child.name != "gateway.queue_wait"]
        assert batch_spans == ["gateway.extract", "gateway.batch_assembly",
                               "gateway.forward"]
        # ...and the export paths see the same tree.
        names = [event["name"] for event in tracer.chrome_trace()]
        assert "gateway.forward" in names
        assert "gateway.request" in tracer.format_tree()

    def test_disabled_tracing_records_nothing(self, gateway_parts):
        dataset, factory = gateway_parts
        gateway = ServingGateway(
            factory, dataset,
            config=GatewayConfig(max_batch_size=4, max_wait=10.0),
        )
        try:
            assert get_tracer() is NULL_TRACER
            gateway.predict(1)
        finally:
            gateway.close()
        assert NULL_TRACER.format_tree() == ""
