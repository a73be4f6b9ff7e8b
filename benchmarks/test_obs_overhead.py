"""Benchmark: observability-plane overhead and profiler coverage.

The obs plane promises to be free when off and honest when on. Three
gates on one synthetic marketplace:

* **Disabled tracing < 2%** on the serving path *and* on the engine
  step path. Instrumentation is compiled in, so the disabled cost is
  measured as a proxy: (null-span cost, measured over a tight loop)
  x (spans actually executed per request / per step, counted from an
  enabled trace of the same workload) / (measured disabled-mode
  latency).
* **Profiler coverage >= 0.95**: with kernel profiling installed, the
  per-kernel timings must account for at least 95% of the measured
  plan-replay wall time on a realistically-sized Gaia training step —
  the profile explains where the time goes, it does not guess.
* Enabled-mode tracing cost is measured and recorded (p95 enabled vs
  disabled) without a gate — turning tracing on costs what it costs;
  the artifact keeps the trajectory inspectable across PRs.

``test_health_plane_degradation`` exercises the **active** health
plane under a FakeClock: a healthy 40-round serving timeline must fire
zero transitions, and three injected faults (slow model, staleness
creep, queue buildup) must each fire their matching alert within a
bounded number of evaluation rounds, reproduce their transition
sequence bitwise on re-run, and keep the plane's per-request cost
inside the same 2% budget.

Results append to ``BENCH_obs.json`` next to this file (override with
``REPRO_BENCH_OBS_ARTIFACT``). Scale knobs: ``REPRO_BENCH_OBS_SHOPS``
(default 300), ``REPRO_BENCH_OBS_REQUESTS`` (default 400),
``REPRO_BENCH_OBS_STEPS`` (default 8).
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime
from pathlib import Path

import pytest

from repro import Gaia, GaiaConfig
from repro.data import MarketplaceConfig
from repro.nn.optim import clip_grad_norm
from repro.obs import (
    SLO,
    AnomalyMonitor,
    FakeClock,
    FlightRecorder,
    HealthServer,
    MetricsHub,
    SLOEngine,
    Tracer,
    gateway_probe,
    profile_kernels,
    streaming_probe,
    use_clock,
    use_tracer,
)
from repro.obs import tracing as obs_tracing
from repro.serving import (
    GatewayConfig,
    LoadGenerator,
    ServiceTimeModel,
    ServingGateway,
    run_load,
)
from repro.streaming import SalesTick, StreamingFeatureStore
from repro.training import TrainConfig, Trainer

from conftest import bench_dataset, run_once

pytestmark = pytest.mark.slow

OBS_SHOPS = int(os.environ.get("REPRO_BENCH_OBS_SHOPS", "300"))
OBS_REQUESTS = int(os.environ.get("REPRO_BENCH_OBS_REQUESTS", "400"))
OBS_STEPS = int(os.environ.get("REPRO_BENCH_OBS_STEPS", "8"))
ARTIFACT_PATH = Path(os.environ.get(
    "REPRO_BENCH_OBS_ARTIFACT",
    Path(__file__).resolve().parent / "BENCH_obs.json",
))
MAX_DISABLED_OVERHEAD = 0.02
MIN_COVERAGE = 0.95
TOP_KERNELS = 5


def _append_artifact(record: dict) -> None:
    history = []
    if ARTIFACT_PATH.exists():
        try:
            history = json.loads(ARTIFACT_PATH.read_text())
        except (ValueError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    ARTIFACT_PATH.write_text(json.dumps(history, indent=2) + "\n")


def _null_span_seconds(iterations: int = 200_000) -> float:
    """Measured cost of one disabled instrumentation point."""
    span = obs_tracing.span
    started = time.perf_counter()
    for _ in range(iterations):
        with span("bench.null"):
            pass
    return (time.perf_counter() - started) / iterations


def _make_gateway(dataset, config):
    return ServingGateway(
        (lambda: Gaia(config, seed=0)), dataset,
        config=GatewayConfig(max_batch_size=32),
    )


def test_obs_overhead(benchmark):
    market, dataset = bench_dataset(OBS_SHOPS, seed=11,
                                    config_factory=MarketplaceConfig)
    gaia_config = GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
        channels=8,
        num_scales=2,
        num_layers=1,
    )
    generator = LoadGenerator(num_shops=dataset.test.num_shops, seed=7)
    stream = generator.generate(
        "repeating", num_requests=OBS_REQUESTS,
        working_set=max(OBS_REQUESTS // 3, 1),
    )

    def run():
        # Fresh gateway per mode, warmed on a stream prefix outside the
        # timed window, so the comparison is mode-vs-mode — not
        # cold-first-run vs warm-second-run.
        gateway_off = _make_gateway(dataset, gaia_config)
        gateway_off.predict_many(stream[:64])
        disabled = run_load(gateway_off.predict_many, stream,
                            pattern="repeating")
        gateway_on = _make_gateway(dataset, gaia_config)
        gateway_on.predict_many(stream[:64])
        tracer = Tracer(max_roots=2 * OBS_REQUESTS)
        with use_tracer(tracer):
            enabled = run_load(gateway_on.predict_many, stream,
                               pattern="repeating")
        return disabled, enabled, tracer

    disabled_report, enabled_report, tracer = run_once(benchmark, run)
    spans_per_request = len(tracer.chrome_trace()) / OBS_REQUESTS
    null_span = _null_span_seconds()

    p95_disabled = disabled_report.latency["p95"]
    p95_enabled = enabled_report.latency["p95"]
    serving_overhead = spans_per_request * null_span / max(p95_disabled, 1e-12)

    # ------------------------------------------------------------------
    # engine step path: disabled-span proxy + profiler coverage
    # ------------------------------------------------------------------
    model = Gaia(GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
    ), seed=0)
    trainer = Trainer(model, dataset, TrainConfig(epochs=1, use_engine=True))
    batch = dataset.train[0]

    def one_step():
        trainer.optimizer.zero_grad()
        loss = trainer._train_step_loss(0, batch)
        clip_grad_norm(trainer.optimizer.parameters, 5.0)
        trainer.optimizer.step()
        return loss

    one_step()  # warmup: trace + plan compilation
    started = time.perf_counter()
    for _ in range(OBS_STEPS):
        one_step()
    step_seconds = (time.perf_counter() - started) / OBS_STEPS
    # One engine.step span per CompiledLoss.run (and one train.step when
    # driven through Trainer.fit); budget two disabled spans per step.
    engine_overhead = 2 * null_span / max(step_seconds, 1e-12)

    with profile_kernels() as profiler:
        for _ in range(OBS_STEPS):
            one_step()
    profile = profiler.report(top=TOP_KERNELS)
    coverage = profile["coverage"]

    record = {
        "timestamp": datetime.now().isoformat(timespec="seconds"),
        "shops": OBS_SHOPS,
        "requests": OBS_REQUESTS,
        "steps": OBS_STEPS,
        "null_span_seconds": null_span,
        "serving": {
            "p95_disabled_seconds": p95_disabled,
            "p95_enabled_seconds": p95_enabled,
            "enabled_over_disabled": p95_enabled / max(p95_disabled, 1e-12),
            "spans_per_request": spans_per_request,
            "disabled_overhead_fraction": serving_overhead,
            "throughput_disabled_rps": disabled_report.throughput_rps,
            "throughput_enabled_rps": enabled_report.throughput_rps,
        },
        "engine": {
            "step_seconds": step_seconds,
            "disabled_overhead_fraction": engine_overhead,
            "profile_coverage": coverage,
            "profiled_replays": profile["replays"],
            "top_kernels": profile["kernels"],
        },
    }

    print()
    print(f"null span          {null_span * 1e9:8.0f} ns")
    print(f"serving p95        {p95_disabled * 1e3:8.2f} ms off / "
          f"{p95_enabled * 1e3:8.2f} ms on "
          f"({spans_per_request:.1f} spans/request, "
          f"disabled overhead {serving_overhead:.4%})")
    print(f"engine step        {step_seconds * 1e3:8.2f} ms "
          f"(disabled overhead {engine_overhead:.4%})")
    print(f"profile coverage   {coverage:8.2%} over "
          f"{profile['replays']} replays")
    for row in profile["kernels"]:
        print(f"  {row['op']:<16} {row['phase']:<8} x{row['calls']:<5} "
              f"{row['seconds'] * 1e3:9.3f} ms "
              f"{row['flops'] / 1e6:10.1f} MFLOP")

    # Result-cache hits legitimately skip the serve path, so the gate is
    # on span *kinds* exercised, not a per-request count (which is the
    # amortized number the overhead proxy needs).
    span_names = {event["name"] for event in tracer.chrome_trace()}
    for expected in ("gateway.request", "gateway.queue_wait",
                     "gateway.extract", "gateway.batch_assembly",
                     "gateway.forward"):
        assert expected in span_names, (
            f"traced serving run never entered {expected!r}; "
            f"saw {sorted(span_names)}"
        )
    assert serving_overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled tracing costs {serving_overhead:.2%} of serving p95 "
        f"({spans_per_request:.1f} spans x {null_span * 1e9:.0f} ns vs "
        f"{p95_disabled * 1e3:.2f} ms); budget is {MAX_DISABLED_OVERHEAD:.0%}"
    )
    assert engine_overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled tracing costs {engine_overhead:.2%} of an engine step "
        f"({step_seconds * 1e3:.2f} ms); budget is {MAX_DISABLED_OVERHEAD:.0%}"
    )
    assert coverage >= MIN_COVERAGE, (
        f"per-kernel timings explain only {coverage:.1%} of replay wall "
        f"time; the profile must account for >= {MIN_COVERAGE:.0%}"
    )

    _append_artifact(record)


# ----------------------------------------------------------------------
# active health plane: degradation scenarios + cost accounting
# ----------------------------------------------------------------------
HEALTH_ROUNDS = 40
FAULT_ROUND = 20
ROUND_SECONDS = 60.0
#: Evaluation cadence the per-request amortisation assumes (one full
#: plane evaluation per second of serving is far more aggressive than
#: the 60 s scenario cadence — the budget holds even then).
EVAL_CADENCE_SECONDS = 1.0

#: scenario -> (matching transition (source, name, state), max rounds
#: from fault injection to that transition).
SCENARIO_EXPECTATIONS = {
    "slow_model": (("slo", "latency:page", "firing"), 10),
    "staleness_creep": (("probe", "streaming", "degraded"), 4),
    "queue_buildup": (("probe", "gateway", "degraded"), 6),
}


def _run_health_timeline(dataset, gaia_config, num_months, fault):
    """Drive one 40-round serving timeline under a FakeClock.

    ``fault`` is ``None`` (healthy baseline) or a SCENARIO_EXPECTATIONS
    key; faults inject at FAULT_ROUND. Returns the full transition list
    plus the round each (source, name, state) first appeared at."""
    with use_clock(FakeClock()) as clock:
        # max_wait must exceed the whole fake timeline: the queue-buildup
        # fault needs parked submits to *stay* parked across rounds, not
        # deadline-flush with minutes of fake queue wait (which would
        # fire the latency SLO instead of the queue-depth probe).
        gateway = ServingGateway(
            (lambda: Gaia(gaia_config, seed=0)), dataset,
            config=GatewayConfig(max_batch_size=64, max_wait=1e9,
                                 result_cache_size=1),
        )
        # Under use_clock(FakeClock) every gateway timestamp comes from
        # the fake clock, so the advance inside each forward *is* the
        # serving latency the histogram sees.
        gateway.model = ServiceTimeModel(gateway.model, clock,
                                         per_forward_s=0.005)
        store = StreamingFeatureStore(dataset.graph.num_nodes, num_months,
                                      watermark=0)
        month = {"value": 0}

        hub = MetricsHub()
        hub.attach_registry(gateway.metrics)
        hub.attach_streaming(store)
        hub.register_source("gateway", lambda: {
            "queue_depth": {"kind": "gauge",
                            "value": float(gateway.queue_depth())},
        })
        recorder = FlightRecorder(hub=hub)
        engine = SLOEngine(hub, clock=clock.now, recorder=recorder)
        engine.add(SLO(name="latency", series="serving.latency_seconds",
                       field="p95", objective=0.025, target=0.99))
        monitor = AnomalyMonitor(hub, clock=clock.now, recorder=recorder)
        monitor.watch("queue-depth", "gateway.queue_depth", warmup=5,
                      z_threshold=3.0, direction="high", min_std=1.0)
        server = HealthServer(clock=clock.now, recorder=recorder)
        server.register("gateway", gateway_probe(gateway, max_queue_depth=24))
        server.register("streaming", streaming_probe(
            store, expected_frontier=(lambda: month["value"]),
            max_lag_months=1))

        transitions = []
        first_seen = {}
        served = 0
        probe_seen = 0
        try:
            for rnd in range(HEALTH_ROUNDS):
                faulty = fault is not None and rnd >= FAULT_ROUND
                gateway.model.per_forward_s = \
                    0.08 if (faulty and fault == "slow_model") else 0.005
                if faulty and fault == "queue_buildup":
                    # Traffic arrives faster than the batcher drains:
                    # park submits, skip the synchronous serves.
                    for _ in range(8):
                        gateway.submit(served % dataset.test.num_shops)
                        served += 1
                else:
                    for _ in range(4):
                        gateway.predict(served % dataset.test.num_shops)
                        served += 1
                month["value"] = min(month["value"] + 1, num_months - 1)
                if not (faulty and fault == "staleness_creep"):
                    store.apply(SalesTick(month=month["value"], shop_index=0,
                                          gmv=1.0))
                batch = list(engine.evaluate())
                batch.extend(monitor.observe())
                server.check()
                batch.extend(list(server.transitions)[probe_seen:])
                probe_seen = len(server.transitions)
                recorder.sample()
                for t in batch:
                    transitions.append(t)
                    first_seen.setdefault((t.source, t.name, t.state), rnd)
                clock.advance(ROUND_SECONDS)
        finally:
            gateway.flush()
            gateway.close()
        return transitions, first_seen


def _measure_plane_cost(dataset, gaia_config, num_months):
    """Real-clock cost of one full plane evaluation in steady state."""
    with use_clock(FakeClock()) as clock:
        gateway = ServingGateway(
            (lambda: Gaia(gaia_config, seed=0)), dataset,
            config=GatewayConfig(max_batch_size=64, max_wait=10.0),
        )
        store = StreamingFeatureStore(dataset.graph.num_nodes, num_months,
                                      watermark=0)
        hub = MetricsHub()
        hub.attach_registry(gateway.metrics)
        hub.attach_streaming(store)
        hub.register_source("gateway", lambda: {
            "queue_depth": {"kind": "gauge",
                            "value": float(gateway.queue_depth())},
        })
        recorder = FlightRecorder(hub=hub)
        engine = SLOEngine(hub, clock=clock.now, recorder=recorder)
        engine.add(SLO(name="latency", series="serving.latency_seconds",
                       field="p95", objective=0.025, target=0.99))
        monitor = AnomalyMonitor(hub, clock=clock.now, recorder=recorder)
        monitor.watch("queue-depth", "gateway.queue_depth", warmup=5,
                      z_threshold=3.0, min_std=1.0)
        server = HealthServer(clock=clock.now, recorder=recorder)
        server.register("gateway", gateway_probe(gateway))
        server.register("streaming", streaming_probe(store))
        try:
            for shop in range(16):       # populate the latency histogram
                gateway.predict(shop % dataset.test.num_shops)
            iterations = 200
            started = time.perf_counter()
            for _ in range(iterations):
                engine.evaluate()
                monitor.observe()
                server.check()
                recorder.sample()
                clock.advance(1.0)
            return (time.perf_counter() - started) / iterations
        finally:
            gateway.close()


def test_health_plane_degradation(benchmark):
    market, dataset = bench_dataset(OBS_SHOPS, seed=11,
                                    config_factory=MarketplaceConfig)
    num_months = market.config.num_months
    gaia_config = GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
        channels=8,
        num_scales=2,
        num_layers=1,
    )

    def run():
        baseline, _ = _run_health_timeline(dataset, gaia_config, num_months,
                                           fault=None)
        scenario_rows = {}
        for fault in SCENARIO_EXPECTATIONS:
            scenario_rows[fault] = _run_health_timeline(
                dataset, gaia_config, num_months, fault)
        return baseline, scenario_rows

    baseline, scenario_rows = run_once(benchmark, run)

    # Zero false positives on the healthy timeline.
    assert baseline == [], (
        f"healthy baseline fired {len(baseline)} transitions: "
        f"{[(t.source, t.name, t.state) for t in baseline]}"
    )

    scenarios = []
    for fault, (expected, max_rounds) in SCENARIO_EXPECTATIONS.items():
        transitions, first_seen = scenario_rows[fault]
        pre_fault = [
            (t.source, t.name, t.state)
            for t, rnd in ((t, first_seen[(t.source, t.name, t.state)])
                           for t in transitions)
            if rnd < FAULT_ROUND
        ]
        assert not pre_fault, (
            f"{fault}: transitions before the fault injects: {pre_fault}"
        )
        assert expected in first_seen, (
            f"{fault}: expected {expected} never fired; saw "
            f"{sorted(first_seen)}"
        )
        detection = first_seen[expected] - FAULT_ROUND
        assert detection <= max_rounds, (
            f"{fault}: {expected} took {detection} rounds to fire "
            f"(budget {max_rounds})"
        )
        row = {
            "fault": fault,
            "expected": list(expected),
            "detection_rounds": detection,
            "transitions": len(transitions),
        }
        if fault == "queue_buildup":
            anomaly = ("anomaly", "queue-depth", "anomalous")
            assert anomaly in first_seen, (
                f"queue_buildup: queue-depth anomaly never fired; saw "
                f"{sorted(first_seen)}"
            )
            row["anomaly_detection_rounds"] = first_seen[anomaly] - FAULT_ROUND
        scenarios.append(row)

    # Bitwise-reproducible transition sequences under the same FakeClock.
    replay, _ = _run_health_timeline(dataset, gaia_config, num_months,
                                     fault="slow_model")
    deterministic = replay == scenario_rows["slow_model"][0]
    assert deterministic, "re-running slow_model changed the transitions"

    # Cost: full plane evaluation, amortised per request at a 1 Hz
    # evaluation cadence against the disabled serving p95.
    evaluate_seconds = _measure_plane_cost(dataset, gaia_config, num_months)
    generator = LoadGenerator(num_shops=dataset.test.num_shops, seed=7)
    stream = generator.generate("repeating", num_requests=200,
                                working_set=64)
    gateway = ServingGateway(
        (lambda: Gaia(gaia_config, seed=0)), dataset,
        config=GatewayConfig(max_batch_size=32),
    )
    try:
        gateway.predict_many(stream[:64])
        report = run_load(gateway.predict_many, stream, pattern="repeating")
    finally:
        gateway.close()
    p95 = report.latency["p95"]
    requests_per_eval = max(report.throughput_rps * EVAL_CADENCE_SECONDS, 1.0)
    overhead = evaluate_seconds / requests_per_eval / max(p95, 1e-12)

    print()
    print(f"plane evaluation   {evaluate_seconds * 1e6:8.1f} us "
          f"(amortised overhead {overhead:.4%} of p95 at "
          f"{report.throughput_rps:.0f} rps)")
    for row in scenarios:
        extra = (f", anomaly +{row['anomaly_detection_rounds']}"
                 if "anomaly_detection_rounds" in row else "")
        print(f"  {row['fault']:<16} -> {'/'.join(row['expected'])} "
              f"after {row['detection_rounds']} rounds{extra}")

    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"health plane costs {overhead:.2%} of serving p95 per request "
        f"({evaluate_seconds * 1e6:.0f} us per evaluation); budget is "
        f"{MAX_DISABLED_OVERHEAD:.0%}"
    )

    _append_artifact({
        "timestamp": datetime.now().isoformat(timespec="seconds"),
        "kind": "health",
        "shops": OBS_SHOPS,
        "health": {
            "rounds": HEALTH_ROUNDS,
            "fault_round": FAULT_ROUND,
            "round_seconds": ROUND_SECONDS,
            "baseline_transitions": len(baseline),
            "scenarios": scenarios,
            "evaluate_seconds": evaluate_seconds,
            "overhead_fraction": overhead,
            "deterministic": deterministic,
        },
    })
