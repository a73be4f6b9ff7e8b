"""Training infrastructure: metrics, trainer, data-parallel trainer,
online drift adaptation, grid search."""

from .grid_search import GridSearchResult, grid_search
from .metrics import evaluate_forecast, mae, mape, rmse
from .online import (
    AdaptationReport,
    OnlineAdapter,
    OnlineAdapterConfig,
    ShopRingWindows,
)
from .parallel import ParallelTrainer
from .trainer import TrainConfig, Trainer, TrainHistory

__all__ = [
    "mae",
    "rmse",
    "mape",
    "evaluate_forecast",
    "TrainConfig",
    "TrainHistory",
    "Trainer",
    "ParallelTrainer",
    "OnlineAdapter",
    "OnlineAdapterConfig",
    "AdaptationReport",
    "ShopRingWindows",
    "grid_search",
    "GridSearchResult",
]
