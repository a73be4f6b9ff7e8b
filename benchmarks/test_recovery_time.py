"""Same-run check: checkpoint + tail beats full replay to first forecast.

One journaled marketplace stream is folded once, snapshotting into one
checkpoint directory per cadence.  For every cadence (``0`` = no
checkpoint, the full replay) the min-of-repeats time-to-serve — reopen
the journal, ``recover``, attach a cold gateway, serve one forecast
batch — is measured in the same run.  The recovered forecasts equal the
never-crashed fold's exactly, the replayed tail is at most the cadence,
and the tightest cadence serves at least 1.2x sooner than full replay.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import Gaia, GaiaConfig
from repro.deploy import ModelRegistry
from repro.serving import GatewayConfig, ServingGateway
from repro.streaming import MarketplaceSimulator
from repro.streaming.durable import DurableEventLog, recover, write_checkpoint

from conftest import bench_dataset, record

pytestmark = pytest.mark.slow

SHOPS = 400
REPEATS = 3
#: Events between snapshots.  Nothing writes cadence 0's directory, so
#: recovering from it replays the whole journal.
CADENCES = (0, 512, 128)


def test_recovery_time_to_serve(tmp_path):
    market, dataset = bench_dataset(SHOPS, seed=13)
    config = GaiaConfig(input_window=dataset.input_window,
                        horizon=dataset.horizon,
                        temporal_dim=dataset.temporal_dim,
                        static_dim=dataset.static_dim,
                        channels=8, num_scales=2, num_layers=1)
    registry = ModelRegistry()
    registry.publish(Gaia(config, seed=0),
                     trained_at_month=market.config.num_months - 3)
    simulator = MarketplaceSimulator(
        market, start_month=market.config.num_months - 8,
        edge_churn_per_month=4, late_tick_fraction=0.25,
        late_tick_max_delay=2, seed=3)
    events = [event for month in simulator.streaming_months
              for event in simulator.events_for_month(month)]
    sample = list(range(0, simulator.initial_graph().num_nodes, 7))

    def serve(dyn, store):
        gateway = ServingGateway(lambda: Gaia(config, seed=0), dataset, registry,
                                 GatewayConfig(max_batch_size=32))
        gateway.attach_stream(dyn, store=store)
        forecasts = np.stack([r.forecast for r in gateway.predict_many(sample)])
        gateway.close()
        return forecasts

    log_dir = tmp_path / "journal"
    with DurableEventLog(log_dir, segment_events=1024) as log:
        log.extend(events)
    dirs = {c: tmp_path / f"every-{c}" for c in CADENCES}
    dyn = simulator.initial_dynamic_graph()
    store = simulator.initial_store(watermark=2)
    for offset, event in enumerate(events, start=1):
        dyn.apply(event)
        store.apply(event)
        for cadence in CADENCES[1:]:
            if offset % cadence == 0:
                write_checkpoint(dirs[cadence], offset,
                                 dynamic_graph=dyn, store=store)
    reference = serve(dyn, store)

    metrics, checks = {}, {}
    for cadence in CADENCES:
        seconds = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            with DurableEventLog(log_dir) as log:
                state = recover(
                    log, dirs[cadence],
                    base_graph=simulator.initial_graph(),
                    store_factory=lambda: simulator.initial_store(watermark=2))
                forecasts = serve(state.dynamic_graph, state.store)
            seconds.append(time.perf_counter() - started)
        metrics[f"every_{cadence}_tail_events"] = state.replayed_events
        metrics[f"every_{cadence}_time_to_serve_ms"] = min(seconds) * 1e3
        checks[f"every {cadence}: forecasts == never-crashed"] = bool(
            (forecasts == reference).all())
        checks[f"every {cadence}: tail <= cadence (0: the whole journal)"] = (
            state.replayed_events <= cadence if cadence
            else state.replayed_events == len(events))
    speedup = (metrics["every_0_time_to_serve_ms"]
               / metrics[f"every_{min(CADENCES[1:])}_time_to_serve_ms"])
    metrics["speedup_vs_full_replay"] = speedup
    checks["speedup >= 1.2"] = speedup >= 1.2
    record("recovery_time", metrics, checks)
