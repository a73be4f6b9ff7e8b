"""Offline monthly training pipeline (paper §VI, Fig 5).

The deployed system re-runs the whole extract → build-graph → train →
publish chain every month to track the evolving e-seller graph.
:class:`MonthlyPipeline` simulates that schedule over the synthetic
marketplace: each run builds a dataset whose *test* cutoff is the
current month, trains a fresh model on the preceding months, and
publishes the weights to the :class:`~repro.deploy.model_server.ModelRegistry`.

Scaling out: with ``n_shards > 1`` each run partitions the e-seller
graph (:func:`~repro.partition.partitioners.partition_graph`) and trains
with :class:`~repro.training.parallel.ParallelTrainer`, which
accumulates each step's gradient over one owner block of loss rows per
shard — numerically equivalent to the sequential trainer.  The run's
:class:`~repro.partition.partition.GraphPartition` is kept on the
:class:`PipelineRun` for inspection (cut fraction, balance, rows read).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..data.dataset import ForecastDataset, build_dataset
from ..data.synthetic import SyntheticMarketplace
from ..nn.module import Module
from ..partition import GraphPartition
from ..training.parallel import ParallelTrainer
from ..training.trainer import TrainConfig, Trainer
from .model_server import ModelRegistry, ModelVersion

__all__ = ["PipelineRun", "MonthlyPipeline"]


@dataclass
class PipelineRun:
    """Record of one scheduled execution."""

    month: int
    version: ModelVersion
    dataset: ForecastDataset
    val_mae: float
    partition: Optional[GraphPartition] = None


class MonthlyPipeline:
    """Scheduled offline training producing versioned models.

    Parameters
    ----------
    market:
        The marketplace whose database feeds the extractors.
    model_factory:
        Builds a fresh model for a dataset (``factory(dataset) ->
        Module``); called once per scheduled month.  A factory that
        accepts a ``seed`` keyword is called as ``factory(dataset,
        seed=month_seed)`` with the month's derived seed, so its
        initialisation cannot leak shared RNG state between runs.
    seed:
        Base seed for the per-month derivation: every scheduled month
        gets ``SeedSequence([seed, month])``, used for the dataset's
        role split and (when accepted) model initialisation.  Each
        month's result therefore depends only on ``(market, month,
        seed)`` — never on which other months ran before it, so
        reordering or pruning a schedule cannot change any surviving
        month's model.
    train_config:
        Trainer settings for each run.
    n_shards:
        Training parallelism: 1 (default) uses the sequential
        :class:`~repro.training.trainer.Trainer`; ``> 1`` partitions the
        month's graph and trains with the
        :class:`~repro.training.parallel.ParallelTrainer`.
    partition_method:
        Forwarded to :func:`~repro.partition.partitioners.partition_graph`.
    """

    def __init__(
        self,
        market: SyntheticMarketplace,
        model_factory: Callable[[ForecastDataset], Module],
        train_config: Optional[TrainConfig] = None,
        input_window: int = 24,
        horizon: int = 3,
        n_shards: int = 1,
        partition_method: str = "bfs",
        seed: int = 101,
    ) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.market = market
        self.model_factory = model_factory
        self.seed = int(seed)
        try:
            parameters = inspect.signature(model_factory).parameters
            self._factory_takes_seed = "seed" in parameters or any(
                p.kind is inspect.Parameter.VAR_KEYWORD
                for p in parameters.values()
            )
        except (TypeError, ValueError):
            self._factory_takes_seed = False
        self.train_config = train_config or TrainConfig()
        self.input_window = input_window
        self.horizon = horizon
        self.n_shards = n_shards
        self.partition_method = partition_method
        self.registry = ModelRegistry()
        self.runs: List[PipelineRun] = []

    def month_seed(self, month: int) -> int:
        """Schedule-independent RNG seed for one scheduled month."""
        return int(np.random.SeedSequence([self.seed, int(month)])
                   .generate_state(1)[0])

    def run_month(self, month: int) -> PipelineRun:
        """Execute one scheduled run with test cutoff at ``month``.

        Fully determined by ``(market, month, seed)``: the dataset's
        role split and (for seed-aware factories) the model's
        initialisation derive from :meth:`month_seed`, never from
        shared state left behind by earlier runs.
        """
        total = self.market.config.num_months
        if not self.horizon + 4 <= month <= total - self.horizon:
            raise ValueError(
                f"month {month} outside the runnable range "
                f"[{self.horizon + 4}, {total - self.horizon}]"
            )
        month_seed = self.month_seed(month)
        dataset = build_dataset(
            self.market,
            input_window=self.input_window,
            horizon=self.horizon,
            test_cutoff=month,
            split_seed=month_seed,
        )
        if self._factory_takes_seed:
            model = self.model_factory(dataset, seed=month_seed)
        else:
            model = self.model_factory(dataset)
        partition: Optional[GraphPartition] = None
        if self.n_shards > 1:
            trainer = ParallelTrainer(
                model,
                dataset,
                self.train_config,
                n_shards=self.n_shards,
                partition_method=self.partition_method,
            )
            partition = trainer.partition
        else:
            trainer = Trainer(model, dataset, self.train_config)
        trainer.fit()
        val_mae = trainer.evaluate(dataset.val, role="val")["overall"]["MAE"]
        version = self.registry.publish(
            model,
            trained_at_month=month,
            metadata={"val_mae": val_mae, "n_shards": float(self.n_shards)},
        )
        run = PipelineRun(
            month=month,
            version=version,
            dataset=dataset,
            val_mae=val_mae,
            partition=partition,
        )
        self.runs.append(run)
        return run

    def run_schedule(self, months: List[int]) -> List[PipelineRun]:
        """Execute several scheduled months in chronological order.

        Because each run's RNG derives from :meth:`month_seed`, a
        month's published model is identical whether it runs alone, in
        a different schedule, or after other months — only the
        registry's version numbering reflects execution order.
        """
        return [self.run_month(m) for m in sorted(months)]
