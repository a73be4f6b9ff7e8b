"""Heavy-traffic admission control: deadlines, priorities, load shedding.

A flash-sale spike is replayed through the serving gateway with a
bounded queue and default budgets (``GatewayConfig(admission=True)``):
every request carries a priority class and a deadline budget, the
micro-batcher drains earliest-deadline-first within strict priority,
and at the bounded queue's edge low-priority traffic is preempted or
shed with a ``retry_after_s`` backpressure hint instead of growing an
unbounded backlog.  The whole episode runs under a ``FakeClock`` with
simulated per-forward service times, so replaying the identical
arrival sequence reproduces every admission decision bitwise — which
this demo verifies at the end.

Run:
    python examples/admission_control.py
"""

import numpy as np

from repro import Gaia, GaiaConfig, build_marketplace
from repro.data import MarketplaceConfig, build_dataset
from repro.obs.clock import FakeClock
from repro.serving import (
    GatewayConfig,
    LoadGenerator,
    ServiceTimeModel,
    ServingGateway,
    admission_report,
    replay_timed,
)

BUDGETS = {"high": 0.03, "normal": 0.06, "low": 0.12}


def build_gateway(dataset, clock):
    gateway = ServingGateway(
        model_factory=lambda: Gaia(GaiaConfig(
            input_window=dataset.input_window,
            horizon=dataset.horizon,
            temporal_dim=dataset.temporal_dim,
            static_dim=dataset.static_dim,
            channels=4, num_scales=2, num_layers=1,
        ), seed=0),
        dataset=dataset,
        config=GatewayConfig(
            admission=True,
            max_batch_size=8,
            max_wait=0.01,
            max_queue_depth=32,
            default_deadline_s=0.05,
            # Keep every request on the (simulated) service path so the
            # spike actually pressures the queue instead of the cache.
            result_cache_size=1,
        ),
        clock=clock.now,
    )
    gateway.model = ServiceTimeModel(
        gateway.model, clock, per_forward_s=0.004, per_row_s=0.0005,
    )
    return gateway


def run_spike(dataset):
    clock = FakeClock()
    gateway = build_gateway(dataset, clock)
    try:
        generator = LoadGenerator(num_shops=dataset.test.num_shops, seed=23)
        requests = generator.generate_timed(
            "flash_sale", duration_s=1.0, base_rps=300.0, spike_factor=10.0,
            deadline_by_priority=dict(BUDGETS),
        )
        responses = replay_timed(gateway, requests, clock)
        return requests, responses, gateway.admission.decision_log(), gateway
    finally:
        gateway.close()


def main() -> None:
    market = build_marketplace(MarketplaceConfig(num_shops=60, seed=11))
    dataset = build_dataset(market, train_fraction=0.6, val_fraction=0.2)

    # --- A 10x flash-sale spike through the admission plane ------------
    requests, responses, decision_log, gateway = run_spike(dataset)
    report = admission_report(responses)
    print(f"flash sale: {report['offered']} offered, "
          f"{report['shed']} shed ({report['shed_fraction']:.1%})")
    for name in ("high", "normal", "low"):
        row = report["classes"][name]
        print(f"  {name:6s} offered {row['offered']:4d}  "
              f"served {row['served']:4d}  "
              f"shed {row['shed_fraction']:6.1%}  "
              f"p95 {row['latency_p95_s'] * 1e3:5.1f} ms "
              f"(budget {BUDGETS[name] * 1e3:.0f} ms)")

    # Shed is a response, not an exception: callers get a retry hint.
    shed = next(r for r in responses if r.shed and r.retry_after_s > 0)
    print(f"\nshed response: priority={shed.priority}, "
          f"retry_after={shed.retry_after_s * 1e3:.0f} ms, "
          f"forecast zeroed={not shed.forecast.any()}")

    block = gateway.metrics_report()["admission"]
    print(f"admission counters: admitted={block['requests_admitted']:.0f}, "
          f"shed={block['requests_shed']:.0f} "
          f"(expired={block['requests_expired']:.0f}), "
          f"shed by class={block['requests_shed_by_class']}")

    # --- Deterministic replay: same arrivals, same decisions, bitwise --
    _, replayed, replay_log, _ = run_spike(dataset)
    identical = decision_log == replay_log and all(
        (a.shed, a.retry_after_s, a.latency_seconds)
        == (b.shed, b.retry_after_s, b.latency_seconds)
        for a, b in zip(responses, replayed)
    )
    print(f"\nreplay of the identical arrival sequence: "
          f"{len(decision_log)} admission decisions, "
          f"bitwise identical={identical}")
    assert identical


if __name__ == "__main__":
    main()
