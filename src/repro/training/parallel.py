"""Sharded training: gradient accumulation over owner blocks of loss rows.

The paper's production system retrains monthly over millions of shops
(§VI).  :class:`ParallelTrainer` splits each training step along a
:class:`~repro.partition.partition.GraphPartition` the way Cluster-GCN
(Chiang et al., KDD 2019) does: the partitioner decides which loss rows
share a forward, and the receptive layout does the rest.

Block ``s`` of a train batch is ``active & (assignment == s)``.  The
step runs :func:`~repro.training.trainer.masked_loss` once per
non-empty block on the **full** graph and the full batch, weighted by
``|block| / |active|``, and the gradients accumulate in ``param.grad``;
the weighted block losses sum to the global mean over active shops.
Each block forwards only the rows within the model's
:attr:`~repro.nn.module.Module.receptive_depth` of its own rows, so it
reads everything it needs for any depth, with nothing copied per shard.
A partitioner that keeps neighbourhoods together keeps the rows two
blocks both read — and embed twice — few
(:meth:`~repro.partition.partition.GraphPartition.rows_read`).

:class:`ParallelTrainer` **is** a :class:`~repro.training.trainer.Trainer`:
the fit loop, validation (one full forward), ``predict_raw`` and
``evaluate`` are inherited; only ``_train_step_loss`` differs.  At one
shard it is bit for bit the sequential trainer (the weight is ``1.0``);
at more it tracks it to rounding.  A model that declares
``receptive_depth = None`` is forwarded on the whole graph once per
block: correct, but ``K`` times the work of one step.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..data.dataset import ForecastDataset, InstanceBatch
from ..nn.module import Module
from ..obs import clock as obs_clock
from ..partition import GraphPartition, partition_graph
from .trainer import TrainConfig, Trainer, masked_loss

__all__ = ["ParallelTrainer"]


class ParallelTrainer(Trainer):
    """Trainer whose step accumulates one gradient per owner block.

    Parameters
    ----------
    model, dataset, config:
        As for :class:`~repro.training.trainer.Trainer`.
    n_shards / partition:
        Either a shard count (the graph is partitioned here with
        ``partition_method`` and ``seed``) or a prebuilt
        :class:`~repro.partition.partition.GraphPartition` of
        ``dataset.graph``.
    """

    def __init__(
        self,
        model: Module,
        dataset: ForecastDataset,
        config: Optional[TrainConfig] = None,
        n_shards: int = 2,
        partition: Optional[GraphPartition] = None,
        partition_method: str = "bfs",
        seed: int = 0,
    ) -> None:
        super().__init__(model, dataset, config)
        if partition is None:
            partition = partition_graph(dataset.graph, n_shards,
                                        method=partition_method, seed=seed)
        elif partition.graph.num_nodes != dataset.graph.num_nodes:
            raise ValueError(
                f"partition covers {partition.graph.num_nodes} nodes but the "
                f"dataset graph has {dataset.graph.num_nodes}"
            )
        self.partition = partition
        self._shard_step_seconds = [0.0] * partition.num_partitions
        self._train_steps = 0

    def _train_step_loss(self, batch_index: int, batch: InstanceBatch) -> float:
        """Accumulate every block's weighted gradient; return the summed loss.

        Leaves ``sum_s (|block_s| / |active|) * grad_s`` — the gradient
        of the mean loss over all active shops — in ``param.grad``
        (zeroed by the fit loop).  Empty blocks are skipped.
        """
        active = self.dataset.active_mask(batch, "train")
        total = int(active.sum())
        if total == 0:
            raise RuntimeError("batch has no active shops for role 'train'")
        loss = 0.0
        for shard, block in enumerate(self.partition.blocks(active)):
            count = int(block.sum())
            if count == 0:
                continue
            started = obs_clock.now()
            loss += self._backward(
                (batch_index, shard),
                lambda block=block, weight=count / total: masked_loss(
                    self.model, self.dataset.graph, batch, block) * weight,
            )
            self._shard_step_seconds[shard] += obs_clock.now() - started
        self._train_steps += 1
        return loss

    def shard_timings(self) -> Dict[str, object]:
        """Cumulative per-block train-step seconds (straggler report).

        ``shard_step_seconds[i]`` is block ``i``'s self-timed seconds
        across all steps so far (0 for a block that never held a loss
        row) — the spread is the load imbalance this partitioning would
        bake into one synchronous step per shard.  Feeds
        :meth:`repro.obs.hub.MetricsHub.attach_parallel`.
        """
        return {
            "steps": self._train_steps,
            "shard_step_seconds": list(self._shard_step_seconds),
        }
