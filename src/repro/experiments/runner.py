"""Uniform driver for all compared methods.

``run_method`` trains (or fits) one Table I method on a dataset and
returns its raw-unit metric table; ``run_methods`` maps over a method
list.  The benchmark harness, examples and tests all go through this
module so every number in EXPERIMENTS.md has a single code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..baselines.registry import create_model
from ..data.dataset import ForecastDataset
from ..obs import clock as obs_clock
from ..training.metrics import MetricTable, evaluate_forecast
from ..training.trainer import TrainConfig, Trainer

__all__ = ["MethodResult", "run_method", "run_methods", "naive_last_value"]


@dataclass
class MethodResult:
    """Outcome of one method on one dataset."""

    name: str
    metrics: MetricTable
    predictions: np.ndarray
    seconds: float
    epochs: int = 0
    trainer: Optional[Trainer] = None

    def metric(self, column: str, key: str) -> float:
        """Convenience accessor, e.g. ``result.metric("Oct", "MAPE")``."""
        return self.metrics[column][key]


def run_method(
    name: str,
    dataset: ForecastDataset,
    train_config: Optional[TrainConfig] = None,
    seed: int = 0,
    channels: int = 16,
    keep_trainer: bool = False,
) -> MethodResult:
    """Train/fit one method and evaluate on the dataset's test batch."""
    started = obs_clock.now()
    model = create_model(name, dataset, seed=seed, channels=channels)
    batch = dataset.test
    active = dataset.active_mask(batch, "test")
    if getattr(model, "kind", "neural") == "classical":
        predictions = model.fit_predict(dataset, batch)
        metrics = evaluate_forecast(
            predictions, batch.labels, batch.horizon_names,
            shop_mask=active,
        )
        return MethodResult(
            name=name,
            metrics=metrics,
            predictions=predictions,
            seconds=obs_clock.now() - started,
        )
    trainer = Trainer(model, dataset, train_config)
    history = trainer.fit()
    predictions = trainer.predict_raw(batch)
    metrics = evaluate_forecast(
        predictions, batch.labels, batch.horizon_names,
        shop_mask=active,
    )
    return MethodResult(
        name=name,
        metrics=metrics,
        predictions=predictions,
        seconds=obs_clock.now() - started,
        epochs=history.epochs_run,
        trainer=trainer if keep_trainer else None,
    )


def run_methods(
    names: Sequence[str],
    dataset: ForecastDataset,
    train_config: Optional[TrainConfig] = None,
    seed: int = 0,
    channels: int = 16,
    verbose: bool = False,
    precomputed: Optional[Dict[str, MethodResult]] = None,
) -> Dict[str, MethodResult]:
    """Run several methods on the same dataset (same seed and budget).

    ``precomputed`` short-circuits methods that were already trained on
    this dataset (the benchmark harness shares results across tables
    and figures).
    """
    results: Dict[str, MethodResult] = {}
    for name in names:
        if precomputed is not None and name in precomputed:
            results[name] = precomputed[name]
            continue
        result = run_method(
            name, dataset, train_config=train_config, seed=seed, channels=channels
        )
        results[name] = result
        if verbose:
            overall = result.metrics["overall"]
            print(
                f"{name:12s} MAE {overall['MAE']:12.0f} RMSE {overall['RMSE']:12.0f} "
                f"MAPE {overall['MAPE']:.4f}  ({result.seconds:.0f}s)"
            )
    return results


def naive_last_value(dataset: ForecastDataset) -> MethodResult:
    """Persistence reference: repeat the last observed month.

    Not in the paper's tables, but a useful sanity floor for the
    synthetic substitution — any learned method should beat it.
    """
    batch = dataset.test
    last = batch.series[:, -1:]
    predictions = np.repeat(last, batch.horizon, axis=1)
    metrics = evaluate_forecast(
        predictions, batch.labels, batch.horizon_names,
        shop_mask=dataset.active_mask(batch, "test"),
    )
    return MethodResult(
        name="NaiveLast", metrics=metrics, predictions=predictions, seconds=0.0
    )
