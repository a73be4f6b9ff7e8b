"""Benchmark: serving-gateway throughput vs the sequential online server.

Perf probe for the serving subsystem: on a 500-shop synthetic
marketplace the gateway (``max_batch_size=32``, micro-batching + LRU
caching) must sustain at least 3x the requests/sec of the sequential
``OnlineModelServer.predict_many`` path on the same repeating request
stream, while producing identical forecasts (<= 1e-6) and a non-trivial
result-cache hit rate.  Results are appended to a JSON artifact
(``BENCH_serving.json`` next to this file, override with
``REPRO_BENCH_SERVING_ARTIFACT``) so the throughput trajectory is
tracked across PRs.

Scale knobs: ``REPRO_BENCH_SERVING_SHOPS`` (default 500) and
``REPRO_BENCH_SERVING_REQUESTS`` (default 600).  Model weights are
untrained — throughput does not depend on fit quality, and the
equivalence check compares gateway vs sequential on the same weights.

``test_admission_fault_matrix`` is the admission plane's companion:
four adversarial traffic scenarios (10x flash-sale spike, hot-key skew,
diurnal wave, slow-drain server) replayed through the deadline-aware
gateway under a ``FakeClock`` + simulated service times, each gated on
per-class p95-within-budget, zero high-priority starvation, a bounded
shed fraction and a bitwise-identical decision log on re-run.  It
appends its own ``{"kind": "admission"}`` record to the same artifact
(``REPRO_BENCH_ADMISSION_SHOPS``, default 60 shops).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro import Gaia, GaiaConfig
from repro.data import MarketplaceConfig
from repro.deploy import ModelRegistry, OnlineModelServer
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.obs.clock import FakeClock
from repro.serving import (
    GatewayConfig,
    LoadGenerator,
    ServiceTimeModel,
    ServingGateway,
    admission_report,
    replay_timed,
    run_load,
)

from conftest import bench_dataset, run_once
import pytest

pytestmark = pytest.mark.slow

SERVING_SHOPS = int(os.environ.get("REPRO_BENCH_SERVING_SHOPS", "500"))
SERVING_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVING_REQUESTS", "600"))
ADMISSION_SHOPS = int(os.environ.get("REPRO_BENCH_ADMISSION_SHOPS", "60"))
ARTIFACT_PATH = Path(os.environ.get(
    "REPRO_BENCH_SERVING_ARTIFACT",
    Path(__file__).resolve().parent / "BENCH_serving.json",
))
MIN_SPEEDUP = 3.0


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


def test_serving_throughput(benchmark):
    # MarketplaceConfig (not the calibrated benchmark config) keeps the
    # workload identical to the records already in BENCH_serving.json.
    market, dataset = bench_dataset(SERVING_SHOPS, seed=11,
                                    config_factory=MarketplaceConfig)
    config = GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
        channels=8,
        num_scales=2,
        num_layers=1,
    )

    def factory():
        return Gaia(config, seed=0)

    registry = ModelRegistry()
    registry.publish(factory(), trained_at_month=market.config.num_months - 3)
    model = factory()
    registry.load_into(model)

    generator = LoadGenerator(num_shops=dataset.test.num_shops, seed=7)
    stream = generator.generate(
        "repeating", num_requests=SERVING_REQUESTS,
        working_set=max(SERVING_REQUESTS // 3, 1),
    )

    def run():
        gateway = ServingGateway(
            factory, dataset, registry,
            GatewayConfig(max_batch_size=32),
        )
        sequential = OnlineModelServer(model, dataset, hops=2)
        sequential_report = run_load(
            sequential.predict_many, stream, pattern="repeating"
        )
        gateway_report = run_load(
            gateway.predict_many, stream, pattern="repeating"
        )
        return gateway, gateway_report, sequential, sequential_report

    gateway, gateway_report, sequential, sequential_report = run_once(benchmark, run)

    # Numerical equivalence on a fresh slice of the stream.
    sample = stream[:64]
    gateway_forecasts = np.stack(
        [r.forecast for r in gateway.predict_many(sample)]
    )
    sequential_forecasts = np.stack(
        [r.forecast for r in sequential.predict_many(sample)]
    )
    max_diff = float(np.abs(gateway_forecasts - sequential_forecasts).max())

    metrics = gateway.metrics_report()
    speedup = gateway_report.throughput_rps / sequential_report.throughput_rps
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "shops": SERVING_SHOPS,
        "requests": SERVING_REQUESTS,
        "max_batch_size": gateway.config.max_batch_size,
        "gateway": gateway_report.to_dict(),
        "sequential": sequential_report.to_dict(),
        "speedup": speedup,
        "max_forecast_diff": max_diff,
        "cache_hit_rate": metrics["cache_hit_rate"],
        "batch_occupancy": metrics["batch_occupancy"],
    }
    _append_artifact(record)

    print()
    print(f"gateway    {gateway_report.throughput_rps:10.0f} req/s "
          f"(p50 {gateway_report.latency['p50'] * 1e3:.2f} ms, "
          f"p99 {gateway_report.latency['p99'] * 1e3:.2f} ms)")
    print(f"sequential {sequential_report.throughput_rps:10.0f} req/s "
          f"(p50 {sequential_report.latency['p50'] * 1e3:.2f} ms, "
          f"p99 {sequential_report.latency['p99'] * 1e3:.2f} ms)")
    print(f"speedup {speedup:.2f}x, cache hit rate "
          f"{metrics['cache_hit_rate']:.2%}, max diff {max_diff:.2e}")

    assert max_diff <= 1e-6, (
        f"gateway forecasts deviate from sequential path by {max_diff:.2e}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"gateway throughput only {speedup:.2f}x sequential "
        f"({gateway_report.throughput_rps:.0f} vs "
        f"{sequential_report.throughput_rps:.0f} req/s); need >= {MIN_SPEEDUP}x"
    )
    assert metrics["cache_hit_rate"] > 0.3, (
        f"repeating load should hit the result cache; got "
        f"{metrics['cache_hit_rate']:.2%}"
    )


# ----------------------------------------------------------------------
# admission-plane fault-injection scenario matrix
# ----------------------------------------------------------------------
#: Per-class deadline budgets (seconds) every scenario declares.
ADMISSION_BUDGETS = {"high": 0.03, "normal": 0.06, "low": 0.12}

#: scenario name -> (generate_timed kwargs, the model's simulated
#: ``per_forward_s``, max tolerated shed fraction).  The slow-drain
#: scenario is steady traffic on a degraded server: every forward
#: costs twice the healthy 4 ms.
ADMISSION_SCENARIOS = {
    "flash_sale": (dict(pattern="flash_sale", base_rps=400.0,
                        spike_factor=10.0), 0.004, 0.80),
    "hot_key": (dict(pattern="hot_key", base_rps=600.0,
                     hot_fraction=0.8), 0.004, 0.60),
    "diurnal": (dict(pattern="diurnal", base_rps=700.0), 0.004, 0.70),
    "slow_drain": (dict(pattern="steady", base_rps=300.0), 0.008, 0.50),
}


class _ZeroForecastModel(Module):
    """Traffic-plane stub: forecasts are irrelevant to admission gates,
    and a zero forward keeps thousands of simulated requests cheap."""

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
            # the overload the scenarios inject; capacity 1 keeps every
            # admitted request on the simulated-service-time path.
            result_cache_size=1,
        ),
        clock=clock.now,
    )
    try:
        gateway.model = ServiceTimeModel(
            gateway.model, clock,
            per_forward_s=per_forward_s, per_row_s=0.0005,
        )
        responses = replay_timed(gateway, requests, clock)
        return responses, gateway.admission.decision_log()
    finally:
        gateway.close()


def test_admission_fault_matrix():
    _, dataset = bench_dataset(ADMISSION_SHOPS, seed=11,
                               config_factory=MarketplaceConfig)
    generator = LoadGenerator(num_shops=dataset.test.num_shops, seed=23)
    scenario_rows = {}
    print()
    for name, (gen_kwargs, per_forward_s,
               max_shed) in ADMISSION_SCENARIOS.items():
        requests = generator.generate_timed(
            duration_s=1.0, deadline_by_priority=dict(ADMISSION_BUDGETS),
            **gen_kwargs)
        responses, log = _simulate_admission(dataset, requests,
                                             per_forward_s)
        replayed, log_replay = _simulate_admission(dataset, requests,
                                                   per_forward_s)
        report = admission_report(responses)

        # Gate: replaying the identical arrival sequence reproduces the
        # full admission decision log (and every response field) bitwise.
        deterministic = log == log_replay and all(
            (a.shed, a.retry_after_s, a.priority, a.latency_seconds)
            == (b.shed, b.retry_after_s, b.priority, b.latency_seconds)
            for a, b in zip(responses, replayed)
        )

        # Gate: the scheduler never refused a high-priority request at
        # the door while lower-priority traffic was holding queue slots.
        starvation_events = sum(
            1 for decision in log
            if decision["action"] == "shed_incoming"
            and decision["priority"] == "high"
            and decision["lower_priority_available"]
        )

        per_class = {}
        for cls, budget in ADMISSION_BUDGETS.items():
            row = report["classes"][cls]
            per_class[cls] = {
                "offered": row["offered"],
                "served": row["served"],
                "shed_fraction": row["shed_fraction"],
                "latency_p95_s": row["latency_p95_s"],
                "budget_s": budget,
            }

        scenario_rows[name] = {
            "offered": report["offered"],
            "shed": report["shed"],
            "shed_fraction": report["shed_fraction"],
            "max_shed_fraction": max_shed,
            "starvation_events": starvation_events,
            "deterministic": deterministic,
            "decisions": len(log),
            "classes": per_class,
        }
        print(f"{name:12s} offered {report['offered']:5d}  "
              f"shed {report['shed_fraction']:6.1%} (max {max_shed:.0%})  "
              f"p95 high/normal/low "
              f"{per_class['high']['latency_p95_s'] * 1e3:.1f}/"
              f"{per_class['normal']['latency_p95_s'] * 1e3:.1f}/"
              f"{per_class['low']['latency_p95_s'] * 1e3:.1f} ms  "
              f"deterministic={deterministic}")

        # Gate: every served request's p95 sits inside its class budget
        # — admitted work is work the deadline promise still holds for.
        for cls, row in per_class.items():
            assert row["latency_p95_s"] <= row["budget_s"] + 1e-9, (
                f"{name}: {cls} p95 {row['latency_p95_s']:.4f}s blows "
                f"its {row['budget_s']}s budget"
            )
        assert starvation_events == 0, (
            f"{name}: {starvation_events} high-priority requests were "
            "door-shed while lower-priority traffic held queue slots"
        )
        assert report["shed_fraction"] <= max_shed, (
            f"{name}: shed fraction {report['shed_fraction']:.1%} above "
            f"the {max_shed:.0%} bound"
        )
        assert deterministic, (
            f"{name}: FakeClock replay diverged — admission transitions "
            "must be bitwise reproducible"
        )

    # The injected faults must actually bite: overload scenarios shed,
    # and the degraded server sheds more than the same steady traffic
    # on a healthy one would.
    assert scenario_rows["flash_sale"]["shed"] > 0
    assert scenario_rows["slow_drain"]["shed"] > 0

    _append_artifact({
        "kind": "admission",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "shops": ADMISSION_SHOPS,
        "budgets_s": dict(ADMISSION_BUDGETS),
        "scenarios": scenario_rows,
    })
