"""Tests for the active health plane (ISSUE 9).

Covers the SLO engine (threshold + ratio SLIs, multi-window burn-rate
alerting, error budgets, no-data handling), the EWMA z-score anomaly
monitor (warm-up suppression, baseline freezing, hysteresis, rate
mode), per-subsystem health probes run against *real* subsystem
objects, the flight recorder (ring bounds, tracer capture, auto-dump
bundles, durability notes), the hardened Prometheus exporter, sparse
percentile-window semantics, and the epoch-shift determinism property
(a FakeClock timeline shifted in epoch and start produces the
identical alert/probe transition sequence).
"""

import json
from collections import Counter

import numpy as np
import pytest

from helpers import forall
from repro.core import Gaia, GaiaConfig
from repro.data import MarketplaceConfig, build_dataset, build_marketplace
from repro.deploy import ModelRegistry
from repro.obs import (
    AnomalyMonitor,
    EwmaZScoreDetector,
    FakeClock,
    FlightRecorder,
    HealthServer,
    MetricsHub,
    ProbeResult,
    SLO,
    SLOEngine,
    Tracer,
    durable_probe,
    gateway_probe,
    online_probe,
    registry_probe,
    streaming_probe,
    use_clock,
    use_recorder,
)
from repro.obs import recorder as obs_recorder
from repro.obs.slo import BurnWindow
from repro.serving import GatewayConfig, MetricsRegistry, ServingGateway
from repro.serving.metrics import RollingWindow
from repro.streaming import DynamicGraph, SalesTick, StreamingFeatureStore
from repro.streaming.durable import Checkpointer, DurableEventLog, recover
from repro.training.online import OnlineAdapter, OnlineAdapterConfig

pytestmark = pytest.mark.obs


def app_source(hub, namespace="app"):
    """A dict-backed hub source: it exports whatever the test last wrote
    (a ``Counter``, so ``app["ticks_total"] += 100`` counts up)."""
    values = Counter()
    hub.register_source(namespace, lambda: values)
    return values


def registry_source(hub, namespace="gw"):
    """A gateway-style ``MetricsRegistry`` federated into ``hub``: the
    way histogram series (``RollingWindow`` summaries) reach a hub."""
    registry = MetricsRegistry()
    hub.attach_registry(registry, namespace=namespace)
    return registry


@pytest.fixture(scope="module")
def serving_parts():
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
    return dataset, (lambda: Gaia(config, seed=0)), market.config.num_months


# ----------------------------------------------------------------------
# SLO engine
# ----------------------------------------------------------------------
class TestSLOEngine:
    def _engine(self, clock):
        hub = MetricsHub()
        engine = SLOEngine(hub, clock=clock.now)
        return hub, engine, app_source(hub)

    def test_healthy_series_never_alerts(self):
        clock = FakeClock()
        hub, engine, app = self._engine(clock)
        engine.add(SLO(name="lat", series="app.p95", objective=0.05,
                       target=0.99))
        for _ in range(200):
            app["p95"] = 0.01
            assert engine.evaluate() == []
            clock.advance(60.0)
        assert engine.active_alerts() == []
        report = engine.report()["lat"]
        assert report["compliant"] is True
        assert report["budget_consumed"] == 0.0

    def test_sustained_breach_fires_page_then_ticket(self):
        clock = FakeClock()
        hub, engine, app = self._engine(clock)
        engine.add(SLO(name="lat", series="app.p95", objective=0.05,
                       target=0.99))
        app["p95"] = 0.50
        transitions = engine.evaluate()
        # Every retained sample is bad: burn = 1/0.01 = 100 over both
        # window pairs, so page and ticket fire together.
        assert sorted(t.name for t in transitions) == ["lat:page",
                                                       "lat:ticket"]
        assert all(t.state == "firing" for t in transitions)
        assert transitions[0].severity == "page"
        assert sorted(engine.active_alerts()) == ["lat:page", "lat:ticket"]

    def test_recovery_clears_page_once_short_window_drains(self):
        clock = FakeClock()
        hub, engine, app = self._engine(clock)
        engine.add(SLO(name="lat", series="app.p95", objective=0.05,
                       target=0.99))
        app["p95"] = 0.50
        engine.evaluate()
        # Recover: good samples every 30s. Once the bad sample ages out
        # of the 5m short window, the page pair can no longer hold.
        cleared = []
        app["p95"] = 0.01
        for _ in range(12):
            clock.advance(30.0)
            cleared.extend(engine.evaluate())
        names = {t.name for t in cleared if t.state == "cleared"}
        assert "lat:page" in names
        # The ticket pair (6h short window) still holds the breach.
        assert "lat:ticket" in engine.active_alerts()

    def test_ratio_slo_tracks_counter_increments(self):
        clock = FakeClock()
        hub, engine, app = self._engine(clock)
        engine.add(SLO(name="errors", series="app.errors_total",
                       total_series="app.requests_total",
                       objective=0.1, target=0.9))
        # First evaluation only primes the counters — no sample yet.
        app["requests_total"] += 100
        engine.evaluate()
        assert engine.report()["errors"]["samples"] == 0.0
        # 5% error increment: compliant.
        app["requests_total"] += 100
        app["errors_total"] += 5
        clock.advance(60.0)
        engine.evaluate()
        report = engine.report()["errors"]
        assert report["sli"] == pytest.approx(0.05)
        assert report["compliant"] is True
        # 50% error increment: violating.
        app["requests_total"] += 100
        app["errors_total"] += 50
        clock.advance(60.0)
        engine.evaluate()
        report = engine.report()["errors"]
        assert report["sli"] == pytest.approx(0.5)
        assert report["compliant"] is False

    def test_ratio_slo_skips_stalled_denominator(self):
        clock = FakeClock()
        hub, engine, app = self._engine(clock)
        engine.add(SLO(name="errors", series="app.errors_total",
                       total_series="app.requests_total",
                       objective=0.1, target=0.9))
        app["requests_total"] += 10
        engine.evaluate()
        clock.advance(60.0)
        engine.evaluate()  # no new requests: no sample recorded
        assert engine.report()["errors"]["samples"] == 0.0

    def test_missing_series_records_no_samples(self):
        clock = FakeClock()
        hub, engine, app = self._engine(clock)
        engine.add(SLO(name="ghost", series="app.never_written",
                       objective=1.0))
        for _ in range(5):
            assert engine.evaluate() == []
            clock.advance(60.0)
        report = engine.report()["ghost"]
        assert report["sli"] is None and report["samples"] == 0.0

    def test_histogram_field_selection(self):
        clock = FakeClock()
        hub, engine, app = self._engine(clock)
        registry = registry_source(hub)
        engine.add(SLO(name="p95", series="gw.latency", field="p95",
                       objective=0.05, target=0.5, comparison="<="))
        # A field on a scalar series, or none on a histogram, is no data.
        engine.add(SLO(name="no-field", series="gw.latency", objective=1.0))
        engine.add(SLO(name="field-on-gauge", series="app.depth",
                       field="p95", objective=1.0))
        app["depth"] = 0.5
        registry.observe("latency", 0.01)
        registry.observe("latency", 0.02)
        engine.evaluate()
        report = engine.report()
        # Interpolated p95 of {0.01, 0.02}, as percentile_summary gives it.
        assert report["p95"]["sli"] == pytest.approx(0.0195)
        assert report["p95"]["compliant"] is True
        assert report["no-field"]["sli"] is None
        assert report["field-on-gauge"]["sli"] is None

    def test_budget_accounting(self):
        clock = FakeClock()
        hub, engine, app = self._engine(clock)
        engine.add(SLO(name="lat", series="app.p95", objective=0.05,
                       target=0.9))
        for bad in (False, False, True, False, True):
            app["p95"] = 0.5 if bad else 0.01
            engine.evaluate()
            clock.advance(60.0)
        budget = engine.budget_report()["lat"]
        assert budget["samples"] == 5.0 and budget["bad_samples"] == 2.0
        # bad fraction 0.4 against a 0.1 budget: consumed 4x over.
        assert budget["budget_consumed"] == pytest.approx(4.0)
        assert budget["budget_remaining"] == pytest.approx(-3.0)

    def test_greater_equal_comparison(self):
        slo = SLO(name="hit", series="s.hit_rate", objective=0.8,
                  comparison=">=", target=0.9)
        assert slo.compliant(0.9) and not slo.compliant(0.5)

    def test_validation(self):
        clock = FakeClock()
        _, engine, _ = self._engine(clock)
        engine.add(SLO(name="a", series="x.y", objective=1.0))
        with pytest.raises(ValueError):
            engine.add(SLO(name="a", series="x.z", objective=1.0))
        with pytest.raises(ValueError):
            SLO(name="b", series="x.y", objective=1.0, comparison="<")
        with pytest.raises(ValueError):
            SLO(name="b", series="x.y", objective=1.0, target=1.0)
        with pytest.raises(ValueError):
            BurnWindow(name="w", long_seconds=10.0, short_seconds=60.0,
                       factor=1.0)
        with pytest.raises(ValueError):
            SLOEngine(MetricsHub(), windows=())


# ----------------------------------------------------------------------
# anomaly detection
# ----------------------------------------------------------------------
class TestAnomalyDetector:
    def test_warmup_suppresses_verdicts(self):
        det = EwmaZScoreDetector("d", warmup=5, z_threshold=3.0)
        # A wild value inside warm-up cannot fire.
        for value in (1.0, 1.1, 500.0, 1.0):
            assert det.observe(value) == "warming"
        assert det.observe(1.05) == "normal"

    def test_step_change_fires_and_baseline_freezes(self):
        det = EwmaZScoreDetector("d", warmup=4, z_threshold=3.0,
                                 clear_z=1.0, clear_samples=3)
        for value in (10.0, 10.5, 9.5, 10.0):
            det.observe(value)
        baseline = det.mean
        assert det.observe(40.0) == "anomalous"
        # Frozen: the anomalous readings are not absorbed, so the
        # baseline cannot drift toward the anomaly and self-clear.
        for _ in range(10):
            assert det.observe(40.0) == "anomalous"
        assert det.mean == baseline

    def test_hysteresis_requires_consecutive_calm(self):
        det = EwmaZScoreDetector("d", warmup=4, z_threshold=3.0,
                                 clear_z=1.0, clear_samples=3)
        for value in (10.0, 10.5, 9.5, 10.0):
            det.observe(value)
        det.observe(40.0)
        # Two calm readings, then a spike: the streak resets.
        det.observe(10.0)
        det.observe(10.0)
        assert det.state == "anomalous"
        det.observe(40.0)
        assert det.state == "anomalous"
        for _ in range(3):
            det.observe(10.0)
        assert det.state == "normal"

    def test_direction_low_ignores_high_tail(self):
        # A "low" detector treats high readings as normal — and absorbs
        # them into the baseline, so the high excursion must be modest
        # or it widens the variance enough to mask the low-tail check.
        det = EwmaZScoreDetector("d", warmup=4, z_threshold=3.0,
                                 direction="low")
        for value in (10.0, 10.5, 9.5, 10.0):
            det.observe(value)
        assert det.observe(12.0) == "normal"       # high tail: not watched
        assert det.observe(-50.0) == "anomalous"   # low tail: fires

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaZScoreDetector("d", alpha=0.0)
        with pytest.raises(ValueError):
            EwmaZScoreDetector("d", clear_z=5.0, z_threshold=4.0)
        with pytest.raises(ValueError):
            EwmaZScoreDetector("d", direction="sideways")
        with pytest.raises(ValueError):
            EwmaZScoreDetector("d", warmup=1)


class TestAnomalyMonitor:
    def test_level_watch_transitions(self):
        clock = FakeClock()
        hub = MetricsHub()
        registry = registry_source(hub)
        monitor = AnomalyMonitor(hub, clock=clock.now)
        # min_std floors the baseline spread at ~2x the injected noise
        # so jitter stays in-band while the 20x step change still fires.
        monitor.watch("p95-step", "gw.latency", field="p95",
                      warmup=4, z_threshold=3.0, clear_samples=2,
                      min_std=0.001)
        rng = np.random.default_rng(0)
        for _ in range(10):
            registry.observe("latency", 0.010 + rng.normal(0.0, 0.0005))
            assert monitor.observe() == []
            clock.advance(60.0)
        for _ in range(4):
            registry.observe("latency", 0.200)
            transitions = monitor.observe()
            clock.advance(60.0)
            if transitions:
                break
        assert transitions[0].name == "p95-step"
        assert transitions[0].state == "anomalous"
        assert monitor.report()["p95-step"]["state"] == "anomalous"

    def test_rate_watch_catches_ingest_collapse(self):
        clock = FakeClock()
        hub = MetricsHub()
        app = app_source(hub)
        monitor = AnomalyMonitor(hub, clock=clock.now)
        # Rates are per *second* (~1.7/s for ~100 ticks/min), so the
        # std floor has to sit well under that scale or the collapse
        # to 0/s never reaches the z threshold.
        monitor.watch("ingest", "app.ticks_total", mode="rate",
                      direction="low", warmup=8, z_threshold=3.0,
                      min_std=0.05)
        # Steady ~100 ticks/min for the warm-up, then a dead stream.
        rng = np.random.default_rng(1)
        fired = []
        for step in range(30):
            if step < 15:
                app["ticks_total"] += 100 + int(rng.integers(0, 5))
            clock.advance(60.0)
            fired.extend(monitor.observe())
        assert [t.state for t in fired] == ["anomalous"]
        assert fired[0].details["value"] == 0.0

    def test_duplicate_watch_rejected(self):
        monitor = AnomalyMonitor(MetricsHub())
        monitor.watch("w", "a.b")
        with pytest.raises(ValueError):
            monitor.watch("w", "a.c")


# ----------------------------------------------------------------------
# health server + probes against real subsystems
# ----------------------------------------------------------------------
class TestHealthServer:
    def test_aggregation_and_flip_transitions(self):
        clock = FakeClock()
        server = HealthServer(clock=clock.now)
        state = {"ready": True}
        server.register("a", lambda: ProbeResult("a", live=True,
                                                 ready=state["ready"]))
        report = server.check()
        assert report["status"] == "ok" and report["ready"] is True
        assert list(server.transitions) == []   # first check, all ok
        state["ready"] = False
        report = server.check()
        assert report["status"] == "degraded"
        assert [t.state for t in server.transitions] == ["degraded"]
        state["ready"] = True
        server.check()
        assert [t.state for t in server.transitions] == ["degraded", "ok"]

    def test_raising_probe_reports_dead_not_crash(self):
        server = HealthServer()

        def broken():
            raise RuntimeError("boom")

        server.register("b", broken)
        report = server.check()
        assert report["status"] == "unhealthy"
        assert "boom" in report["probes"]["b"]["reason"]

    def test_duplicate_probe_rejected(self):
        server = HealthServer()
        server.register("a", lambda: ProbeResult("a", True, True))
        with pytest.raises(ValueError):
            server.register("a", lambda: ProbeResult("a", True, True))


class TestGatewayHealth:
    def test_gateway_health_end_to_end(self, serving_parts):
        dataset, factory, num_months = serving_parts
        registry = ModelRegistry()
        registry.publish(factory(), trained_at_month=0)
        gateway = ServingGateway(
            factory, dataset, registry,
            config=GatewayConfig(max_batch_size=8, max_wait=10.0),
        )
        try:
            report = gateway.health()
            assert report["status"] == "ok"
            assert set(report["probes"]) == {"gateway", "registry"}
            # Park requests without flushing: queue depth rises.
            for shop in range(3):
                gateway.submit(shop)
            assert gateway.queue_depth() == 3
            probe = gateway_probe(gateway, max_queue_depth=2)
            result = probe()
            assert result.live and not result.ready
            assert "queue depth 3" in result.reason
            gateway.flush()
            assert gateway.queue_depth() == 0
            assert probe().ready
        finally:
            gateway.close()

    def test_attach_stream_registers_streaming_probe(self, serving_parts):
        dataset, factory, num_months = serving_parts
        gateway = ServingGateway(
            factory, dataset,
            config=GatewayConfig(max_batch_size=8, max_wait=10.0),
        )
        try:
            store = StreamingFeatureStore(dataset.graph.num_nodes,
                                          num_months)
            dyn = DynamicGraph(dataset.graph)
            gateway.attach_stream(dyn, store=store)
            assert "streaming" in gateway.health_server.probes()
            assert gateway.health()["status"] == "ok"
        finally:
            gateway.close()


class TestSubsystemProbes:
    def test_streaming_probe_drop_rate_and_lag(self):
        store = StreamingFeatureStore(4, 12, watermark=0)
        store.apply(SalesTick(month=5, shop_index=0, gmv=1.0))
        store.apply(SalesTick(month=4, shop_index=1, gmv=1.0))  # dropped
        assert store.ticks_offered == 2
        assert store.drop_rate() == pytest.approx(0.5)
        probe = streaming_probe(store, max_drop_rate=0.4)
        result = probe()
        assert result.live and not result.ready
        assert "drop rate" in result.reason
        # Frontier lag against a moving expectation.
        lag_probe = streaming_probe(store, max_drop_rate=1.0,
                                    expected_frontier=lambda: 9,
                                    max_lag_months=2)
        result = lag_probe()
        assert not result.ready and result.details["lag_months"] == 4.0

    def test_online_probe_reads_real_adapter(self, serving_parts):
        dataset, factory, num_months = serving_parts
        store = StreamingFeatureStore(dataset.graph.num_nodes,
                                      num_months)
        adapter = OnlineAdapter(
            factory(), ModelRegistry(), store, dataset.graph, dataset,
            OnlineAdapterConfig(min_drifted_shops=2),
        )
        probe = online_probe(adapter)
        assert probe().ready and probe().live
        # Force a drift storm: more than 4x min_drifted_shops over the
        # threshold.
        adapter.error_ewma[:10] = adapter.config.drift_threshold + 1.0
        result = probe()
        assert result.live and not result.ready
        assert "drift storm" in result.reason
        report = adapter.drift_report()
        assert report["num_drifted"] == 10
        assert report["in_cooldown"] is False

    def test_durable_probe_checkpoint_lag_and_close(self, tmp_path):
        log = DurableEventLog(tmp_path / "wal")
        ckpt = Checkpointer(tmp_path / "ckpt", interval_events=10 ** 9)
        probe = durable_probe(log, checkpointer=ckpt,
                              max_checkpoint_lag_events=3)
        assert probe().ready
        for month in range(6):
            log.append(SalesTick(month=month, shop_index=0, gmv=1.0))
        result = probe()
        assert result.live and not result.ready
        assert "checkpoint lags" in result.reason
        log.close()
        assert log.closed
        result = probe()
        assert not result.live and result.name == "durable"

    def test_registry_probe(self, serving_parts):
        _, factory, _num_months = serving_parts
        registry = ModelRegistry()
        result = registry_probe(registry)()
        assert not result.live and "no model versions" in result.reason
        registry.publish(factory(), trained_at_month=0)
        assert registry_probe(registry)().live
        health = registry.health()
        assert health["servable"] and health["num_versions"] == 1


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_buffers_are_bounded(self):
        recorder = FlightRecorder(max_notes=3, max_transitions=2)
        for index in range(10):
            recorder.note(f"kind-{index}")
        assert [n["kind"] for n in recorder.notes] == [
            "kind-7", "kind-8", "kind-9"]
        hub = MetricsHub()
        app = app_source(hub)
        engine = SLOEngine(hub, recorder=recorder)
        engine.add(SLO(name="lat", series="app.p95", objective=0.05,
                       target=0.99))
        with use_clock(FakeClock()) as clock:
            for value in (0.5, 0.01, 0.5, 0.01, 0.5):
                app["p95"] = value
                engine.evaluate()
                clock.advance(400.0)
        assert len(recorder.transitions) == 2

    def test_watch_tracer_captures_roots(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock.now)
        recorder = FlightRecorder(max_spans=2)
        recorder.watch_tracer(tracer)
        for index in range(4):
            with tracer.span(f"request-{index}"):
                with tracer.span("inner"):
                    clock.advance(0.001)
        assert [s["name"] for s in recorder.spans] == ["request-2",
                                                       "request-3"]
        assert recorder.spans[0]["children"][0]["name"] == "inner"
        # Retroactive roots flow through the same retention helper.
        tracer.record("retro", clock.now(), clock.now() + 1.0)
        assert [s["name"] for s in recorder.spans] == ["request-3", "retro"]

    def test_dump_bundle_schema_and_auto_dump(self, tmp_path):
        with use_clock(FakeClock()):
            hub = MetricsHub()
            app = app_source(hub)
            app["p95"] = 0.5
            recorder = FlightRecorder(hub=hub, dump_dir=tmp_path,
                                      config={"deployment": "test"})
            engine = SLOEngine(hub, recorder=recorder)
            recorder.attach_slo(engine)
            engine.add(SLO(name="lat", series="app.p95", objective=0.05,
                           target=0.99))
            recorder.sample()
            engine.evaluate()   # fires -> auto-dump per firing transition
        dumps = sorted(tmp_path.glob("dump-*.json"))
        assert len(dumps) == 2  # page + ticket transitions
        bundle = json.loads(dumps[0].read_text())
        assert set(bundle) == {"trigger", "at", "elapsed", "config", "spans",
                               "samples", "transitions", "notes",
                               "slo_budgets"}
        assert bundle["config"] == {"deployment": "test"}
        assert bundle["slo_budgets"]["lat"]["samples"] == 1.0
        assert bundle["samples"][0]["series"][0]["name"] == "p95"
        assert bundle["transitions"][0]["state"] == "firing"

    def test_module_level_note_is_noop_without_recorder(self):
        assert obs_recorder.get_recorder() is None
        obs_recorder.note("nobody-listening")  # must not raise
        recorder = FlightRecorder()
        with use_recorder(recorder):
            obs_recorder.note("heard", detail=7)
        assert obs_recorder.get_recorder() is None
        assert recorder.notes[0]["kind"] == "heard"
        assert recorder.notes[0]["details"] == {"detail": 7}

    def test_torn_tail_truncation_drops_a_note(self, tmp_path):
        directory = tmp_path / "wal"
        log = DurableEventLog(directory)
        log.append(SalesTick(month=1, shop_index=0, gmv=1.0))
        log.close()
        segment = sorted(directory.glob("events-*.seg"))[0]
        with open(segment, "ab") as handle:
            handle.write(b"TORN")   # a crash mid-append
        recorder = FlightRecorder()
        with use_recorder(recorder):
            reopened = DurableEventLog(directory)
        assert reopened.torn_records_truncated == 1
        kinds = [n["kind"] for n in recorder.notes]
        assert kinds == ["torn_tail_truncated"]
        assert recorder.notes[0]["details"]["kept_records"] == 1

    def test_rejected_seal_drops_a_note(self, tmp_path):
        directory = tmp_path / "wal"
        log = DurableEventLog(directory, segment_events=2)
        for month in range(5):
            log.append(SalesTick(month=month, shop_index=0, gmv=1.0))
        log.close()
        recorder = FlightRecorder()
        with use_recorder(recorder):
            clean = DurableEventLog(directory, segment_events=2)
        assert clean.segments_rescanned == 0 and not recorder.notes
        sidecar = sorted(directory.glob("events-*.seal"))[1]
        sidecar.write_bytes(b"GARBLED\n")
        with use_recorder(recorder):
            reopened = DurableEventLog(directory, segment_events=2)
        assert reopened.segments_rescanned == 1
        assert [n["kind"] for n in recorder.notes] == ["segment_seal_rejected"]
        details = recorder.notes[0]["details"]
        assert details["segment"] == sidecar.with_suffix(".seg").name
        assert "incomplete record" in details["reason"]
        probe = durable_probe(reopened)()
        assert probe.ready and probe.details["segments_rescanned"] == 1.0

    def test_recovery_drops_a_note(self, tmp_path, serving_parts):
        dataset, _, num_months = serving_parts
        log = DurableEventLog(tmp_path / "wal")
        log.append(SalesTick(month=0, shop_index=0, gmv=2.0))
        recorder = FlightRecorder()
        with use_recorder(recorder):
            state = recover(
                log, tmp_path / "ckpt", base_graph=dataset.graph,
                store_factory=lambda: StreamingFeatureStore(
                    dataset.graph.num_nodes, num_months),
            )
        assert state.replayed_events == 1
        note = recorder.notes[-1]
        assert note["kind"] == "recovery"
        assert note["details"]["cold_start"] is True
        assert note["details"]["replayed_events"] == 1


# ----------------------------------------------------------------------
# hardened Prometheus exporter
# ----------------------------------------------------------------------
class TestPrometheusHardening:
    def test_sanitize_collision_raises(self):
        hub = MetricsHub()
        hub.register_source("app", lambda: {"a.b": 1.0, "a_b": 2.0})
        with pytest.raises(ValueError, match="collision"):
            hub.to_prometheus()

    def test_summary_derived_names_collide_too(self):
        hub = MetricsHub()
        registry = registry_source(hub, namespace="app")
        registry.observe("latency", 0.1)
        registry.inc("latency_sum", 5.0)
        with pytest.raises(ValueError, match="collision"):
            hub.to_prometheus()

    def test_help_lines_escape_hostile_text(self):
        hub = MetricsHub()
        hub.register_source("app", lambda: {"depth": {
            "kind": "gauge", "value": 3.0,
            "help": "queue depth\nwith a \\ backslash"}})
        text = hub.to_prometheus()
        assert ("# HELP app_depth queue depth\\nwith a \\\\ backslash"
                in text)
        assert "\nwith" not in text.replace("\\n", "")  # no raw newline

    def test_source_spec_help_key(self):
        hub = MetricsHub()
        hub.register_source("src", lambda: {
            "x": {"kind": "gauge", "value": 1.0, "help": "from the source"},
        })
        assert "# HELP src_x from the source" in hub.to_prometheus()

    def test_each_type_emitted_exactly_once(self):
        hub = MetricsHub()
        registry = registry_source(hub, namespace="app")
        registry.inc("hits_total", 3)
        registry.observe("latency", 0.1)
        registry.observe("latency", 0.2)
        hub.register_source("dep", lambda: {"depth": 1.0})
        text = hub.to_prometheus()
        type_lines = [line for line in text.splitlines()
                      if line.startswith("# TYPE ")]
        families = [line.split()[2] for line in type_lines]
        assert len(families) == len(set(families))
        assert {line.split()[3] for line in type_lines} == {
            "counter", "gauge", "summary"}
        assert text.count("# TYPE app_latency summary") == 1

    def test_hostile_names_round_trip_when_unambiguous(self):
        hub = MetricsHub()
        hub.register_source("app", lambda: {"weird-name.with chars": 1.5})
        text = hub.to_prometheus()
        assert "app_weird_name_with_chars 1.5" in text


# ----------------------------------------------------------------------
# sparse percentile windows (SLO inputs must be defined at n=1)
# ----------------------------------------------------------------------
class TestSparseWindows:
    def test_rolling_window_single_element(self):
        window = RollingWindow(capacity=16)
        window.observe(0.125)
        summary = window.summary()
        assert (summary["p50"] == summary["p95"] == summary["p99"]
                == summary["mean"] == 0.125)
        assert summary["count"] == 1.0

    def test_hub_histogram_single_element(self):
        hub = MetricsHub()
        registry_source(hub).observe("latency", 0.25)
        summary = next(row["value"] for row in hub.collect()
                       if row["name"] == "latency")
        assert summary["p50"] == summary["p95"] == summary["p99"] == 0.25


# ----------------------------------------------------------------------
# the epoch-shift determinism property
# ----------------------------------------------------------------------
def _run_timeline(start, epoch, faults):
    """Drive one deterministic degradation timeline under a FakeClock.

    Returns the full transition sequence as (source, name, state,
    seconds-since-start) tuples — everything that should be invariant
    when the clock's epoch and start are shifted.
    """
    with use_clock(FakeClock(start=start, epoch=epoch)) as clock:
        origin = clock.now()
        hub = MetricsHub()
        app = app_source(hub)
        engine = SLOEngine(hub, clock=clock.now)
        engine.add(SLO(name="lat", series="app.p95", objective=0.05,
                       target=0.99))
        monitor = AnomalyMonitor(hub, clock=clock.now)
        monitor.watch("depth", "app.queue_depth", warmup=4,
                      z_threshold=3.0, min_std=0.5)
        server = HealthServer(clock=clock.now)
        state = {"depth": 0.0}
        server.register("queue", lambda: ProbeResult(
            "queue", live=True, ready=state["depth"] < 50.0))
        events = []

        def collect(transitions):
            events.extend(
                (t.source, t.name, t.state, round(t.elapsed - origin, 9))
                for t in transitions
            )

        before = 0
        for step, (p95, depth) in enumerate(faults):
            app["p95"] = p95
            state["depth"] = depth
            app["queue_depth"] = depth
            collect(engine.evaluate())
            collect(monitor.observe())
            server.check()
            collect(list(server.transitions)[before:])
            before = len(server.transitions)
            clock.advance(60.0)
        return events


def _timeline_case(rng):
    steps = int(rng.integers(20, 40))
    faults = []
    for step in range(steps):
        breached = rng.random() < 0.3
        p95 = 0.5 if breached else 0.01
        depth = float(rng.integers(60, 100)) if rng.random() < 0.2 \
            else float(rng.integers(0, 8))
        faults.append((p95, depth))
    shift = float(rng.integers(1, 10 ** 7))
    start = float(rng.integers(0, 10 ** 5))
    return faults, start, shift


def test_alert_sequences_invariant_under_epoch_shift():
    def prop(case):
        faults, start, shift = case
        baseline = _run_timeline(0.0, 1_700_000_000.0, faults)
        shifted = _run_timeline(start, 1_700_000_000.0 + shift, faults)
        assert baseline == shifted
        assert baseline  # the generator produces at least one flip

    forall(_timeline_case, prop, trials=20, seed=7,
           name="epoch-shift alert determinism")
