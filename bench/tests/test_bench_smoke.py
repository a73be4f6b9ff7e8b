"""Smoke test of the repo benchmark, on ``--quick`` runs.

Outside tier-1 ``testpaths`` (it spends about half a minute running all
four workloads twice).  Run it with::

    PYTHONPATH=src python -m pytest bench/tests -q

It checks the harness against ``BENCHMARK.json``, not the program's
speed: quick runs use small worlds and short windows and their numbers
are not comparable with full runs.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Layer metrics that must read exactly 0 where the layer does no work:
#: the workload that bypasses a mechanism is only a control if it does.
MUST_BE_ZERO = {
    "serve_steady": ("serving.invalidation_share", "durable.append_count",
                     "streaming.topology_events", "training.step_ms"),
    "serve_churn": ("training.step_ms", "durable.checkpoint_count"),
    "ingest_recover": ("serving.submit_us", "deploy.publish_ms",
                       "training.step_ms"),
    "train_epoch": ("serving.batches", "durable.append_count",
                    "nn.inference_forwards"),
}
MUST_BE_POSITIVE = {
    "serve_steady": ("serving.result_hit_rate", "nn.forward_ms_per_batch",
                     "deploy.publish_ms", "serving.queue_wait_p50_ms"),
    "serve_churn": ("serving.invalidation_share", "durable.append_us",
                    "event_visible_p95_ms", "serving.invalidation_evict_ratio"),
    "ingest_recover": ("durable.append_us", "durable.reopen_ms",
                       "durable.replay_events_per_s", "bulk_forecasts_per_s",
                       "graph.extract_ms_per_batch"),
    "train_epoch": ("nn.replay_ms_per_step", "training.val_ms",
                    "nn.arena_bytes", "train_epochs_per_s"),
}


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "5", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=300, cwd=REPO_ROOT,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {(workload, trace): _run(workload, trace)
            for workload in WORKLOADS for trace in (0, 1)}


def test_spec_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"]] \
        + [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    runs = 4 + 22 * len(WORKLOADS)
    assert isinstance(SPEC["run_seconds"], int)
    assert runs * (SPEC["run_seconds"] + 12) <= 3420, \
        "runs, with set-up and checks, no longer fit the driver's cap"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_shape_and_correctness(results, workload):
    for trace in (0, 1):
        result = results[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_and_never_zero(results, workload):
    metrics = results[workload, 0]["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        emitted = metrics[metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0.0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_layer_metric_is_emitted(results, workload):
    metrics = results[workload, 1]["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    # The driver's contract has every workload print every metric, so a
    # layer a workload bypasses reads 0 there (not absent), and one it
    # exercises must not.
    for name in MUST_BE_ZERO[workload]:
        assert metrics[name]["value"] == 0.0, name
    for name in MUST_BE_POSITIVE[workload]:
        assert metrics[name]["value"] > 0.0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_the_loop(results, workload):
    metrics = results[workload, 1]["metrics"]
    assert metrics["bench.loop_coverage"]["value"] >= 0.95
    assert (BENCH_DIR / "out" / f"trace-{workload}.json").exists()
    if workload == "train_epoch":
        assert metrics["nn.kernel_coverage"]["value"] >= 0.95
