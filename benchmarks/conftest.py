"""Shared benchmark environment.

One synthetic marketplace + one dataset + one training budget feed every
table/figure benchmark, and trained method results are cached in a
session store so Table I's Gaia and LogTrans are reused by the Fig 3 /
Fig 4 / deployment benches instead of being retrained.

Scale is controlled by the ``REPRO_BENCH_SHOPS`` / ``REPRO_BENCH_EPOCHS``
environment variables (defaults: 400 shops, 400 epochs — the calibrated
configuration recorded in EXPERIMENTS.md) and ``REPRO_BENCH_SMALL_SHOPS``
(default 200) for the reduced-scale ablation sweeps.

The same-run checks beside the figures report through :func:`record`.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.data import build_dataset, build_marketplace
from repro.experiments import (
    benchmark_marketplace_config,
    benchmark_train_config,
    run_method,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(REPO_ROOT))     # bench/ is scripts, not an installed package
from bench.harness import environment  # noqa: E402  (read-only import)

BENCH_SHOPS = int(os.environ.get("REPRO_BENCH_SHOPS", "400"))
BENCH_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "400"))
SMALL_SHOPS = int(os.environ.get("REPRO_BENCH_SMALL_SHOPS", "200"))
#: Untracked: a run writes here and never dirties the tree.
RECORD_DIR = Path(__file__).resolve().parent / "out"


def seeded_rng(seed: int = 0) -> np.random.Generator:
    """Deterministic generator for benchmark randomness — one shared
    entry point so every bench derives from an explicit seed."""
    return np.random.default_rng(seed)


def bench_dataset(num_shops: int, seed: int = 7):
    """Calibrated marketplace + shop-split dataset, shared by every
    benchmark world."""
    market = build_marketplace(
        benchmark_marketplace_config(num_shops=num_shops, seed=seed))
    return market, build_dataset(market, train_fraction=0.65, val_fraction=0.15)


def record(name: str, metrics: dict, checks: dict) -> None:
    """Write one result to ``out/<name>.json`` and fail on a broken check.

    Every same-run check reports the one shape ``{name, environment,
    metrics, checks}``: ``environment`` is ``bench.harness``'s stamp
    (commit, cores, interpreter, BLAS), ``checks`` maps each claim to
    whether it held.  The record is written before the verdict, so a
    failing run leaves its numbers behind.
    """
    RECORD_DIR.mkdir(exist_ok=True)
    result = {"name": name, "environment": environment(),
              "metrics": metrics, "checks": checks}
    text = json.dumps(result, indent=2,
                      default=lambda value: value.item())   # numpy scalars
    (RECORD_DIR / f"{name}.json").write_text(text + "\n")
    print(f"\n{name}")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:.4g}" if isinstance(value, float)
              else f"  {key:40s} {value}")
    failed = [claim for claim, held in checks.items() if not held]
    assert not failed, f"{name}: {failed} failed ({metrics})"


@pytest.fixture(scope="session")
def small_marketplace():
    """Small shared marketplace/dataset for reduced-scale perf probes
    (``REPRO_BENCH_SMALL_SHOPS``, default 200)."""
    market, dataset = bench_dataset(SMALL_SHOPS)
    return SimpleNamespace(market=market, dataset=dataset)


@pytest.fixture(scope="session")
def bench_env():
    """Marketplace, dataset, budget and a lazy per-method result cache."""
    market, dataset = bench_dataset(BENCH_SHOPS)
    train_config = benchmark_train_config(epochs=BENCH_EPOCHS)
    store: dict = {}

    def get(name: str, keep_trainer: bool = False):
        cached = store.get(name)
        if cached is not None and (not keep_trainer or cached.trainer is not None):
            return cached
        result = run_method(name, dataset, train_config, keep_trainer=keep_trainer)
        store[name] = result
        return result

    return SimpleNamespace(
        market=market,
        dataset=dataset,
        train_config=train_config,
        get=get,
        store=store,
    )


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
