"""New-vs-old shop group analysis (paper Fig 3, §V-B3).

The paper splits shops into a "New Shop Group" (history length < 10)
and an "Old Shop Group" (>= 10) and shows Gaia's margin over the best
graph-free baseline (LogTrans) is larger on new shops — evidence that
the e-seller graph counteracts temporal deficiency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..data.dataset import ForecastDataset
from ..training.metrics import evaluate_forecast

__all__ = ["GroupComparison", "compare_groups", "improvement"]

NEW_SHOP_THRESHOLD = 10


@dataclass
class GroupComparison:
    """Per-group metrics for two methods plus relative improvements."""

    group_metrics: Dict[str, Dict[str, Dict[str, float]]]
    improvements: Dict[str, Dict[str, float]]

    def margin_larger_on_new(self, metric: str = "MAE") -> bool:
        """True when the improvement on new shops exceeds old shops."""
        return (
            self.improvements["new"][metric] > self.improvements["old"][metric]
        )


def improvement(baseline_value: float, model_value: float) -> float:
    """Relative improvement of ``model`` over ``baseline`` (paper style).

    The paper reports e.g. "215.8% w.r.t. MAE improvement", i.e.
    ``(baseline - model) / model`` — how much worse the baseline is
    relative to the model.
    """
    if model_value <= 0:
        return float("inf")
    return (baseline_value - model_value) / model_value


def compare_groups(
    dataset: ForecastDataset,
    model_predictions: np.ndarray,
    baseline_predictions: np.ndarray,
    threshold: int = NEW_SHOP_THRESHOLD,
) -> GroupComparison:
    """Compare a model and a baseline on new/old shop groups.

    Predictions are raw-unit arrays of shape ``(S, H)`` on the test
    batch.  Only shops with at least one observed input month enter
    either group.
    """
    batch = dataset.test
    active = dataset.active_mask(batch, "test")
    new_mask = dataset.new_shop_mask(threshold) & active
    old_mask = ~dataset.new_shop_mask(threshold) & active

    group_metrics: Dict[str, Dict[str, Dict[str, float]]] = {}
    improvements: Dict[str, Dict[str, float]] = {}
    for group_name, mask in (("new", new_mask), ("old", old_mask)):
        if not mask.any():
            raise ValueError(f"group {group_name!r} is empty; adjust the threshold")
        model_overall = evaluate_forecast(
            model_predictions, batch.labels, batch.horizon_names, shop_mask=mask
        )["overall"]
        baseline_overall = evaluate_forecast(
            baseline_predictions, batch.labels, batch.horizon_names, shop_mask=mask
        )["overall"]
        group_metrics[group_name] = {
            "model": model_overall,
            "baseline": baseline_overall,
        }
        improvements[group_name] = {
            metric: improvement(baseline_overall[metric], model_overall[metric])
            for metric in ("MAE", "RMSE", "MAPE")
        }
    return GroupComparison(group_metrics=group_metrics, improvements=improvements)
