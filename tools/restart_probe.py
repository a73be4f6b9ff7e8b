"""Stage table of one ``ingest_recover`` restart, lower quartile of 8.

Builds the benchmark's world (``bench/harness.py`` + ``bench/wl_ingest.py``,
4000 shops, ≈35k events), ingests the stream once (8 sealed segments
and an active one, a checkpoint every ``CHECKPOINT_EVERY`` events), then
restarts from it 8 times and prints the lower quartile of each stage in
ms:

* ``reopen`` — ``DurableEventLog(...)`` over the journal;
* ``checkpoint load`` — the newest checkpoint the journal reaches,
  loaded and built into a ``DynamicGraph`` and a store;
* ``tail decode`` — ``journal.since(offset)`` drained to a list;
* ``tail fold`` — those events through ``dyn.apply`` and ``store.apply``;
* ``cold gateway``, ``attach``, ``first 256`` — the benchmark's cold
  gateway, ``attach_stream`` and its first ``FIRST_FORECASTS`` forecasts.

The three middle rows are ``recover()`` taken apart; the probe also runs
``recover()`` once and checks that it folds to the same state.  Run it on
two trees to compare a change to the restart path (``repro.streaming
.durable``, the folds, ``attach_stream``, the first cold forecasts).
About 3 s per tree::

    python tools/restart_probe.py                # this tree, seed 11
    python tools/restart_probe.py TREE [SEED]    # another checkout
"""

import os
import sys
import tempfile
from pathlib import Path

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
tree = Path(sys.argv[1] if len(sys.argv) > 1
            else Path(__file__).resolve().parent.parent).resolve()
seed = int(sys.argv[2]) if len(sys.argv) > 2 else 11
sys.path[:0] = [str(tree / "src"), str(tree / "bench")]

import numpy as np  # noqa: E402

import harness  # noqa: E402
import wl_ingest  # noqa: E402
from harness import clock  # noqa: E402

from repro.streaming.durable import (  # noqa: E402
    DurableEventLog,
    latest_checkpoint,
    load_checkpoint,
    recover,
)

STAGES = ("reopen", "checkpoint load", "tail decode", "tail fold",
          "cold gateway", "attach", "first 256", "total")

world = harness.build_world(
    wl_ingest.NUM_SHOPS, seed, stream=True,
    gaia_kwargs={"channels": 8, "num_scales": 2, "num_layers": 1})
harness.publish_initial(world)
shops = np.random.default_rng(seed + 5).permutation(
    wl_ingest.NUM_SHOPS)[:wl_ingest.FIRST_FORECASTS]
rows = []
with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    wl_ingest._ingest(world, workdir, wl_ingest.Samples())
    files = sorted((workdir / "journal").iterdir())
    print(f"{len(world.events)} events, {len(files)} journal files, "
          f"{sum(path.stat().st_size for path in files)} bytes")
    for _ in range(8):
        t = [clock()]
        journal = DurableEventLog(workdir / "journal",
                                  segment_events=wl_ingest.SEGMENT_EVENTS)
        t.append(clock())
        ckpt = load_checkpoint(latest_checkpoint(
            workdir / "checkpoints", max_offset=journal.high_water))
        dyn, store = ckpt.build_dynamic_graph(), ckpt.build_store()
        t.append(clock())
        tail = list(journal.since(ckpt.offset))
        t.append(clock())
        for event in tail:
            dyn.apply(event)
            store.apply(event)
        t.append(clock())
        gateway = wl_ingest._cold_gateway(world)
        t.append(clock())
        gateway.attach_stream(dyn, store=store)
        t.append(clock())
        gateway.predict_many(shops)
        t.append(clock())
        gateway.close()
        journal.close()
        rows.append(list(np.diff(t)) + [t[-1] - t[0]])
    with DurableEventLog(workdir / "journal",
                         segment_events=wl_ingest.SEGMENT_EVENTS) as journal:
        state = recover(journal, workdir / "checkpoints")
    same = (state.replayed_events == len(tail)
            and wl_ingest._same_fold(dyn, store, state.dynamic_graph,
                                     state.store))
print(f"tail {len(tail)} events from offset {ckpt.offset}; "
      f"recover() folds the same state: {same}")
for name, column in zip(STAGES, zip(*rows)):
    print(f"{name:15s} {np.percentile(column, 25) * 1e3:8.1f} ms")
