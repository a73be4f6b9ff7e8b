"""Behaviour under injected faults, replayed on a ``FakeClock``.

Both checks run on simulated time, so their verdicts do not depend on
the machine:

* ``test_admission_fault_matrix`` — four adversarial traffic scenarios
  (10x flash-sale spike, hot-key skew, diurnal wave, slow-drain server)
  through the deadline-aware gateway with a simulated service time per
  forward: every class's served p95 within its budget, zero
  high-priority starvation, a bounded shed fraction, a nonzero shed
  where the fault must bite, and a bitwise-identical decision log when
  the arrival sequence is replayed.
* ``test_health_plane_degradation`` — a healthy 40-round serving
  timeline fires no transition, and three injected faults (slow model,
  staleness creep, queue buildup) each fire their matching alert within
  a bounded number of evaluation rounds, reproducibly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Gaia, GaiaConfig
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.obs import (
    SLO,
    AnomalyMonitor,
    FakeClock,
    FlightRecorder,
    HealthServer,
    MetricsHub,
    SLOEngine,
    gateway_probe,
    streaming_probe,
    use_clock,
)
from repro.serving import (
    GatewayConfig,
    LoadGenerator,
    ServiceTimeModel,
    ServingGateway,
    admission_report,
    replay_timed,
)
from repro.streaming import SalesTick, StreamingFeatureStore

from conftest import bench_dataset, record

pytestmark = pytest.mark.slow

#: Per-class deadline budgets (seconds) every admission scenario declares.
ADMISSION_BUDGETS = {"high": 0.03, "normal": 0.06, "low": 0.12}

#: scenario -> (generate_timed kwargs, simulated ``per_forward_s``, max
#: shed fraction).  Slow drain is steady traffic on a degraded server:
#: every forward costs twice the healthy 4 ms.
ADMISSION_SCENARIOS = {
    "flash_sale": (dict(pattern="flash_sale", base_rps=400.0,
                        spike_factor=10.0), 0.004, 0.80),
    "hot_key": (dict(pattern="hot_key", base_rps=600.0,
                     hot_fraction=0.8), 0.004, 0.60),
    "diurnal": (dict(pattern="diurnal", base_rps=700.0), 0.004, 0.70),
    "slow_drain": (dict(pattern="steady", base_rps=300.0), 0.008, 0.50),
}


class _ZeroForecastModel(Module):
    """Traffic-plane stub: forecasts are irrelevant to admission, and a
    zero forward keeps thousands of simulated requests cheap."""

    def forward(self, batch, graph):
        return Tensor(np.zeros((batch.num_shops, batch.horizon)))


def _simulate_admission(dataset, requests, per_forward_s):
    """One deterministic replay: fresh gateway, fake clock, simulated
    service time.  Returns (responses, decision log)."""
    clock = FakeClock()
    gateway = ServingGateway(
        _ZeroForecastModel, dataset,
        config=GatewayConfig(
            admission=True, max_batch_size=8, max_wait=0.01,
            max_queue_depth=32, default_deadline_s=0.05,
            # A warm result cache would serve repeats for free and hide
            # the overload the scenarios inject.
            result_cache_size=1,
        ),
        clock=clock.now,
    )
    try:
        gateway.model = ServiceTimeModel(gateway.model, clock,
                                         per_forward_s=per_forward_s,
                                         per_row_s=0.0005)
        responses = replay_timed(gateway, requests, clock)
        return responses, gateway.admission.decision_log()
    finally:
        gateway.close()


def test_admission_fault_matrix():
    _, dataset = bench_dataset(60, seed=11)
    generator = LoadGenerator(num_shops=dataset.test.num_shops, seed=23)
    metrics, checks = {}, {}
    for name, (kwargs, per_forward_s, max_shed) in ADMISSION_SCENARIOS.items():
        requests = generator.generate_timed(
            duration_s=1.0, deadline_by_priority=dict(ADMISSION_BUDGETS),
            **kwargs)
        responses, log = _simulate_admission(dataset, requests, per_forward_s)
        replayed, log_replay = _simulate_admission(dataset, requests,
                                                   per_forward_s)
        report = admission_report(responses)
        metrics[f"{name}_offered"] = report["offered"]
        metrics[f"{name}_shed_fraction"] = report["shed_fraction"]
        checks[f"{name}: replay reproduces every decision"] = (
            log == log_replay and all(
                (a.shed, a.retry_after_s, a.priority, a.latency_seconds)
                == (b.shed, b.retry_after_s, b.priority, b.latency_seconds)
                for a, b in zip(responses, replayed)))
        checks[f"{name}: no high-priority starvation"] = not any(
            decision["action"] == "shed_incoming"
            and decision["priority"] == "high"
            and decision["lower_priority_available"] for decision in log)
        checks[f"{name}: shed fraction <= {max_shed}"] = (
            report["shed_fraction"] <= max_shed)
        for cls, budget in ADMISSION_BUDGETS.items():
            p95 = report["classes"][cls]["latency_p95_s"]
            metrics[f"{name}_{cls}_p95_ms"] = p95 * 1e3
            checks[f"{name}: {cls} p95 within {budget} s"] = p95 <= budget + 1e-9
        if name in ("flash_sale", "slow_drain"):   # the fault must bite
            checks[f"{name}: sheds"] = report["shed"] > 0
    record("admission_fault_matrix", metrics, checks)


HEALTH_ROUNDS = 40
FAULT_ROUND = 20
ROUND_SECONDS = 60.0

#: scenario -> (matching transition (source, name, state), max rounds
#: from fault injection to that transition).
HEALTH_SCENARIOS = {
    "slow_model": (("slo", "latency:page", "firing"), 10),
    "staleness_creep": (("probe", "streaming", "degraded"), 4),
    "queue_buildup": (("probe", "gateway", "degraded"), 6),
}


def _run_health_timeline(dataset, gaia_config, num_months, fault):
    """Drive one 40-round serving timeline under a FakeClock.

    ``fault`` is ``None`` (healthy baseline) or a HEALTH_SCENARIOS key;
    faults inject at FAULT_ROUND.  Returns the full transition list plus
    the round each (source, name, state) first appeared at."""
    with use_clock(FakeClock()) as clock:
        # max_wait must exceed the whole fake timeline: the queue-buildup
        # fault needs parked submits to *stay* parked across rounds.
        gateway = ServingGateway(
            (lambda: Gaia(gaia_config, seed=0)), dataset,
            config=GatewayConfig(max_batch_size=64, max_wait=1e9,
                                 result_cache_size=1),
        )
        # The fake-clock advance inside each forward *is* the latency
        # the histogram sees.
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

        transitions, first_seen = [], {}
        served = probe_seen = 0
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


def test_health_plane_degradation():
    market, dataset = bench_dataset(300, seed=11)
    num_months = market.config.num_months
    gaia_config = GaiaConfig(
        input_window=dataset.input_window, horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim, static_dim=dataset.static_dim,
        channels=8, num_scales=2, num_layers=1,
    )
    baseline, _ = _run_health_timeline(dataset, gaia_config, num_months, None)
    metrics = {"baseline_transitions": len(baseline)}
    checks = {"healthy baseline fires nothing": not baseline}
    for fault, (expected, max_rounds) in HEALTH_SCENARIOS.items():
        transitions, first_seen = _run_health_timeline(
            dataset, gaia_config, num_months, fault)
        detection = first_seen.get(expected, HEALTH_ROUNDS) - FAULT_ROUND
        metrics[f"{fault}_detection_rounds"] = detection
        checks[f"{fault}: nothing fires before the fault"] = (
            all(rnd >= FAULT_ROUND for rnd in first_seen.values()))
        checks[f"{fault}: {'/'.join(expected)} within {max_rounds} rounds"] = (
            expected in first_seen and detection <= max_rounds)
        if fault == "queue_buildup":
            checks[f"{fault}: queue-depth anomaly fires"] = (
                ("anomaly", "queue-depth", "anomalous") in first_seen)
        if fault == "slow_model":
            replay, _ = _run_health_timeline(dataset, gaia_config,
                                             num_months, fault)
            checks[f"{fault}: replay reproduces the transitions"] = (
                replay == transitions)
    record("health_plane_degradation", metrics, checks)
