"""Crash recovery: durable journal, checkpoints, resume-identical serving.

The persistence plane end to end, with a simulated hard crash:

1. The monthly pipeline trains and publishes a Gaia model at the
   deployment month, exactly as in ``streaming_marketplace.py``.
2. The live event stream is journaled to a :class:`DurableEventLog`
   *before* each in-memory fold (write-ahead), while a
   :class:`Checkpointer` snapshots the folded world — compacted graph,
   feature-store tables, adapter EWMAs — every few hundred events.
3. The process "crashes" 70% of the way through the stream, mid-write:
   we drop every in-memory object and append a torn half-record to the
   active journal segment, the exact bytes a killed process leaves.
4. :func:`recover` reopens the journal (truncating the torn tail),
   loads the newest reachable checkpoint, and replays only the tail —
   then a fresh :class:`ServingGateway` attaches cold and the second
   life finishes the stream through the same journal.
5. The finale compares the recovered gateway's forecasts against a
   never-crashed fold of the same events: they must match bitwise.

Run:
    python examples/crash_recovery.py
"""

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import Gaia, GaiaConfig, TrainConfig, build_marketplace
from repro.deploy import MonthlyPipeline
from repro.experiments import benchmark_marketplace_config
from repro.serving import GatewayConfig, ServingGateway
from repro.streaming import EventLog, MarketplaceSimulator
from repro.streaming.durable import Checkpointer, DurableEventLog, recover
from repro.training import OnlineAdapter


def main() -> None:
    market = build_marketplace(
        benchmark_marketplace_config(num_shops=150, seed=17)
    )
    months = market.config.num_months
    deploy_month = months - 8

    def gaia_factory(dataset, seed=0):
        return Gaia(GaiaConfig(
            input_window=dataset.input_window,
            horizon=dataset.horizon,
            temporal_dim=dataset.temporal_dim,
            static_dim=dataset.static_dim,
        ), seed=seed)

    # --- Offline: train + publish the deployment snapshot ---------------
    pipeline = MonthlyPipeline(
        market, gaia_factory,
        TrainConfig(epochs=30, patience=8, learning_rate=7e-3),
    )
    run = pipeline.run_month(deploy_month)
    dataset = run.dataset
    print(f"deployed v{run.version.version} at month {deploy_month} "
          f"(val MAE {run.val_mae:,.0f})")

    simulator = MarketplaceSimulator(
        market, start_month=deploy_month, edge_churn_per_month=3,
        late_tick_fraction=0.25, late_tick_max_delay=2, seed=7,
    )
    all_events = [event
                  for month in simulator.streaming_months
                  for event in simulator.events_for_month(month)]
    crash_at = int(len(all_events) * 0.7)

    workdir = Path(tempfile.mkdtemp(prefix="repro-crash-recovery-"))
    log_dir = workdir / "journal"
    ckpt_dir = workdir / "checkpoints"

    # --- First life: journal, fold, checkpoint ---------------------------
    durable = DurableEventLog(log_dir, segment_events=512)
    log = EventLog(durable=durable)
    dyn = simulator.initial_dynamic_graph()
    store = simulator.initial_store(watermark=2)
    adapter = OnlineAdapter(gaia_factory(dataset), pipeline.registry,
                            store, dyn, dataset)
    checkpointer = Checkpointer(ckpt_dir, interval_events=300,
                                dynamic_graph=dyn, store=store,
                                adapter=adapter)
    for event in all_events[:crash_at]:
        log.append(event)  # journaled to disk BEFORE the in-memory fold
        dyn.apply(event)
        store.apply(event)
        checkpointer.observe(durable.high_water)

    # --- The crash -------------------------------------------------------
    # A killed process leaves a prefix of a valid record in the active
    # segment; reproduce those exact bytes, then drop every live object.
    active_segment = sorted(log_dir.glob("events-*.seg"))[-1]
    with open(active_segment, "ab") as handle:
        handle.write(b'0000002a 1badc0de {"kind": "SalesTick", "month"')
    del log, dyn, store, adapter, checkpointer, durable
    checkpoints = sorted(ckpt_dir.glob("ckpt-*"))
    print(f"crashed after {crash_at}/{len(all_events)} events "
          f"({len(checkpoints)} checkpoints on disk, torn record "
          f"left in {active_segment.name})")

    # --- Second life: recover = newest checkpoint + tail replay ----------
    started = time.perf_counter()
    reopened = DurableEventLog(log_dir, segment_events=512)
    adapter = OnlineAdapter(gaia_factory(dataset), pipeline.registry,
                            simulator.initial_store(watermark=2),
                            simulator.initial_dynamic_graph(), dataset)
    state = recover(
        reopened, ckpt_dir,
        base_graph=simulator.initial_graph(),
        store_factory=lambda: simulator.initial_store(watermark=2),
        adapter=adapter,
    )
    elapsed_ms = (time.perf_counter() - started) * 1e3
    print(f"recovered in {elapsed_ms:.1f} ms: checkpoint @ offset "
          f"{state.checkpoint_offset}, replayed {state.replayed_events} "
          f"tail events, {reopened.torn_records_truncated} torn record "
          f"truncated, journal high-water {reopened.high_water}")
    assert reopened.high_water == crash_at

    gateway = ServingGateway(
        model_factory=lambda: gaia_factory(dataset),
        dataset=dataset,
        registry=pipeline.registry,
        config=GatewayConfig(max_batch_size=32, max_staleness_months=1),
    )
    # Default attach cold-starts the caches: nothing cached under the
    # pre-crash stream may be served against the recovered one.
    gateway.attach_stream(state.dynamic_graph, store=state.store)

    # Finish the stream through the same journal (write-ahead as before).
    log = EventLog.from_durable(reopened)
    for event in all_events[crash_at:]:
        log.append(event)
        state.dynamic_graph.apply(event)
        state.store.apply(event)
    print(f"second life ingested {len(all_events) - crash_at} more events; "
          f"event-time frontier month {state.store.frontier}, "
          f"{state.store.late_ticks_accepted} late ticks accepted, "
          f"journal high-water {reopened.high_water}")

    # --- Equivalence: the crash must be unobservable ---------------------
    ref_dyn = simulator.initial_dynamic_graph()
    ref_store = simulator.initial_store(watermark=2)
    for event in all_events:
        ref_dyn.apply(event)
        ref_store.apply(event)
    ref_gateway = ServingGateway(
        model_factory=lambda: gaia_factory(dataset),
        dataset=dataset,
        registry=pipeline.registry,
        config=GatewayConfig(max_batch_size=32, max_staleness_months=1),
    )
    ref_gateway.attach_stream(ref_dyn, store=ref_store)

    sample = list(range(40))
    live = np.stack([r.forecast for r in gateway.predict_many(sample)])
    ref = np.stack([r.forecast for r in ref_gateway.predict_many(sample)])
    max_diff = float(np.abs(live - ref).max())
    print(f"forecast equivalence vs the never-crashed fold: "
          f"max diff {max_diff:.2e} over {len(sample)} shops")
    assert max_diff == 0.0

    gateway.close()
    ref_gateway.close()
    reopened.close()
    shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
