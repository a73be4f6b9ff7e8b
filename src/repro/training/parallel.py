"""Data-parallel training: one worker per graph shard, synchronous averaging.

The paper's production system retrains monthly over millions of shops
(§VI); a single full-batch :class:`~repro.training.trainer.Trainer`
cannot.  This module shards the problem along the graph:

* :class:`ShardedDataset` cuts a :class:`~repro.data.dataset.ForecastDataset`
  along a :class:`~repro.partition.partition.GraphPartition`.  Each
  shard's local view contains the induced subgraph over ``owned | halo``
  nodes and row-sliced batches; its train/val/test node masks select
  **owned** rows only, so every global loss term is counted by exactly
  one shard.
* :class:`ParallelTrainer` **is** a
  :class:`~repro.training.trainer.Trainer`: it inherits the one fit
  loop (epochs, ``train.epoch`` / ``train.step`` spans, clipping, the
  Adam step, early stopping, best-weight restore), ``predict_raw`` and
  ``evaluate``, and overrides exactly the two things a sharded trainer
  does differently.  ``_train_step_loss`` scatters the weights, lets
  each worker compute :func:`~repro.training.trainer.masked_mse` and
  its gradient over its owned active shops, and combines them into
  ``param.grad`` weighted by the shards' active-shop counts;
  ``_val_loss`` is the count-weighted mean of the shard losses.

**Numerical equivalence.**  With ``halo_hops >= `` the model's
message-passing depth, a shard-local forward equals the full-graph
forward on its owned rows (induced ``k``-hop neighborhoods are
complete; :func:`~repro.training.trainer.masked_loss` then forwards
only the part of ``owned | halo`` the owned loss rows read, so halo
rows nothing owned reads cost nothing), and the count-weighted average
of shard losses / gradients equals the global mean over active shops.
The stopping rule and the restored weights are the sequential trainer's
by construction; the loss trajectory matches it up to float
reassociation (~1e-12/step; the equivalence test budgets 1e-6).

**Execution modes.**  ``mode="sim"`` runs the workers sequentially
in-process — deterministic, dependency-free, used by tests and as the
reference semantics.  ``mode="process"`` forks one OS process per shard
and exchanges ``state_dict`` / gradient arrays over pipes each step, so
shard forwards genuinely overlap and wall-clock drops on multi-core
hosts (see ``benchmarks/test_partition_scaling.py``).
"""

from __future__ import annotations

import copy
import multiprocessing as mp
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import ForecastDataset, InstanceBatch
from ..nn import engine
from ..nn.module import Module
from ..nn.tensor import no_grad
from ..obs import clock as obs_clock
from ..partition import GraphPartition, Partition, partition_graph
from .trainer import TrainConfig, Trainer, TrainHistory, masked_mse

__all__ = ["ShardView", "ShardedDataset", "ParallelTrainer"]

Grads = List[Optional[np.ndarray]]


@dataclass
class ShardView:
    """One shard's local slice of the global training problem.

    ``dataset`` is a self-contained :class:`ForecastDataset` over the
    shard's ``owned | halo`` nodes whose role masks select owned rows
    only; ``nodes`` maps local rows back to global node indices.
    """

    partition: Partition
    dataset: ForecastDataset
    nodes: np.ndarray
    owned_mask: np.ndarray

    @property
    def partition_id(self) -> int:
        """Shard index."""
        return self.partition.partition_id


class ShardedDataset:
    """Split one :class:`ForecastDataset` by partition ownership.

    Each shard receives the induced subgraph over its partition's
    ``owned | halo`` node set, row-sliced train/val/test batches, and
    role masks restricted to owned nodes — the disjoint-cover property
    that makes count-weighted shard losses sum to the global loss.
    """

    def __init__(self, dataset: ForecastDataset, partition: GraphPartition) -> None:
        if partition.graph.num_nodes != dataset.graph.num_nodes:
            raise ValueError(
                f"partition covers {partition.graph.num_nodes} nodes but the "
                f"dataset graph has {dataset.graph.num_nodes}"
            )
        self.dataset = dataset
        self.partition = partition
        self.shards: List[ShardView] = [
            self._build_shard(part) for part in partition.parts
        ]

    def _build_shard(self, part: Partition) -> ShardView:
        dataset = self.dataset
        nodes = part.nodes
        local_graph, _ = dataset.graph.subgraph(nodes)
        owned_mask = part.local_owned_mask()

        def local_role_mask(role: str) -> np.ndarray:
            return dataset.node_mask(role)[nodes] & owned_mask

        local = ForecastDataset(
            graph=local_graph,
            train=[batch.subset(nodes) for batch in dataset.train],
            val=dataset.val.subset(nodes),
            test=dataset.test.subset(nodes),
            scaler=dataset.scaler,
            history_lengths=dataset.history_lengths[nodes],
            input_window=dataset.input_window,
            horizon=dataset.horizon,
            split=dataset.split,
            train_nodes=local_role_mask("train"),
            val_nodes=local_role_mask("val"),
            test_nodes=local_role_mask("test"),
        )
        return ShardView(
            partition=part, dataset=local, nodes=nodes, owned_mask=owned_mask
        )

    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    def replication_factor(self) -> float:
        """Total local rows across shards relative to the global row count."""
        total = sum(shard.nodes.size for shard in self.shards)
        return total / self.dataset.graph.num_nodes


# ----------------------------------------------------------------------
# per-shard loss/gradient computation (shared by sim and process modes)
# ----------------------------------------------------------------------
class _ShardWorker:
    """Executes one shard's forward/backward; oblivious to transport.

    Training steps run through one :class:`~repro.nn.engine.CompiledLoss`
    per train batch — same planned executor as the sequential trainer,
    with gradients bit-identical to the eager graph walk.  The shard's
    active-row count is batch-static and cached alongside the plan.
    """

    def __init__(self, model: Module, shard: ShardView,
                 use_engine: bool = True) -> None:
        self.model = model
        self.shard = shard
        self.use_engine = use_engine
        self._params = model.parameters()
        self._compiled: Dict[int, Tuple[int, Optional[engine.CompiledLoss]]] = {}

    def _compiled_entry(self, batch_index: int):
        entry = self._compiled.get(batch_index)
        if entry is None:
            dataset = self.shard.dataset
            batch = dataset.train[batch_index]
            count = int(dataset.active_mask(batch, "train").sum())
            compiled = None
            if count and self.use_engine:
                compiled = engine.CompiledLoss(
                    lambda b=batch, d=dataset:
                        masked_mse(self.model, d, b, "train")[0]
                )
            entry = (count, compiled)
            self._compiled[batch_index] = entry
        return entry

    def train_step(self, state: Dict[str, np.ndarray],
                   batch_index: int) -> Tuple[float, int, Optional[Grads], float]:
        """Gradient of the shard loss at ``state`` on one train batch.

        Returns ``(loss, active_count, grads, seconds)`` — the worker
        times itself through the injectable observability clock, so the
        coordinator's per-shard load report works in both transports
        (in ``"process"`` mode the coordinator only sees the reply, not
        the work).
        """
        started = obs_clock.now()
        self.model.load_state_dict(state)
        self.model.train()
        self.model.zero_grad()
        count, compiled = self._compiled_entry(batch_index)
        if count == 0:
            return 0.0, 0, None, obs_clock.now() - started
        if compiled is not None and engine.fused_enabled():
            loss_value = compiled.run()
        else:
            dataset = self.shard.dataset
            loss, _ = masked_mse(
                self.model, dataset, dataset.train[batch_index], "train"
            )
            loss.backward()
            loss_value = loss.item()
        grads: Grads = [
            None if p.grad is None else p.grad.copy() for p in self._params
        ]
        return loss_value, count, grads, obs_clock.now() - started

    def val_loss(self, state: Dict[str, np.ndarray]) -> Tuple[float, int]:
        """Shard validation loss at ``state`` (0-weight when inactive)."""
        self.model.load_state_dict(state)
        self.model.eval()
        dataset = self.shard.dataset
        with no_grad():
            loss, count = masked_mse(self.model, dataset, dataset.val, "val")
        self.model.train()
        if loss is None:
            return 0.0, 0
        return loss.item(), count


def _worker_loop(conn, model: Module, shard: ShardView,
                 use_engine: bool = True) -> None:
    """Child-process server: answer train/val requests until stopped."""
    worker = _ShardWorker(model, shard, use_engine=use_engine)
    try:
        while True:
            message = conn.recv()
            command = message[0]
            if command == "train":
                conn.send(worker.train_step(message[1], message[2]))
            elif command == "val":
                conn.send(worker.val_loss(message[1]))
            elif command == "stop":
                break
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class ParallelTrainer(Trainer):
    """Synchronous data-parallel trainer over graph shards.

    Parameters
    ----------
    model:
        The global model instance; holds the final weights after
        :meth:`fit` exactly like the sequential trainer's model.
    dataset:
        Full-graph dataset; sharded internally.
    config:
        Same :class:`~repro.training.trainer.TrainConfig` as the
        sequential trainer.
    n_shards / partition:
        Either a shard count (the graph is partitioned here with
        ``partition_method`` / ``halo_hops``) or a prebuilt
        :class:`~repro.partition.partition.GraphPartition`.
    mode:
        ``"sim"`` (deterministic in-process) or ``"process"``
        (one forked worker process per shard).
    halo_hops:
        Ghost-zone depth; defaults to the model's message-passing depth
        (``model.config.num_layers``) when discoverable, else 2.  Must
        be >= the model depth for equivalence with sequential training;
        a prebuilt ``partition`` shallower than the model is rejected
        unless ``halo_hops`` is passed explicitly as an opt-out.
    model_factory:
        Optional zero-argument builder for worker model clones; default
        deep-copies ``model``.
    """

    def __init__(
        self,
        model: Module,
        dataset: ForecastDataset,
        config: Optional[TrainConfig] = None,
        n_shards: int = 2,
        partition: Optional[GraphPartition] = None,
        mode: str = "sim",
        partition_method: str = "bfs",
        halo_hops: Optional[int] = None,
        model_factory=None,
        seed: int = 0,
    ) -> None:
        if mode not in ("sim", "process"):
            raise ValueError(f"unknown mode {mode!r}; use 'sim' or 'process'")
        super().__init__(model, dataset, config)
        self.mode = mode
        model_depth = getattr(getattr(model, "config", None), "num_layers", None)
        if halo_hops is None and partition is None:
            halo_hops = 2 if model_depth is None else model_depth
        if partition is None:
            partition = partition_graph(
                dataset.graph,
                n_shards,
                method=partition_method,
                halo_hops=halo_hops,
                seed=seed,
            )
        elif (
            halo_hops is None
            and model_depth is not None
            and partition.halo_hops < model_depth
        ):
            # A too-shallow ghost zone silently voids the equivalence
            # guarantee; an explicit halo_hops= acts as the opt-out.
            raise ValueError(
                f"partition halo_hops={partition.halo_hops} is below the "
                f"model's message-passing depth ({model_depth}); shard-local "
                f"training would diverge from the sequential trainer.  Pass "
                f"halo_hops={partition.halo_hops} explicitly to override."
            )
        self.partition = partition
        self.sharded = ShardedDataset(dataset, partition)
        factory = model_factory or (lambda: copy.deepcopy(model))
        self._workers = [
            _ShardWorker(factory(), shard, use_engine=self.config.use_engine)
            for shard in self.sharded.shards
        ]
        for worker in self._workers:
            worker.model.load_state_dict(model.state_dict())
        self._shard_step_seconds: Optional[List[float]] = None
        self._train_steps = 0
        self._pipes = None
        self._processes = None

    # ------------------------------------------------------------------
    # process-mode plumbing
    # ------------------------------------------------------------------
    def _start_processes(self) -> None:
        if self._processes is not None:
            return
        try:
            context = mp.get_context("fork")
        except ValueError:
            context = mp.get_context("spawn")
        self._pipes = []
        self._processes = []
        for worker in self._workers:
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_loop,
                args=(child_conn, worker.model, worker.shard, worker.use_engine),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._pipes.append(parent_conn)
            self._processes.append(process)

    def shutdown(self) -> None:
        """Stop worker processes (no-op in sim mode / when never started)."""
        if self._processes is None:
            return
        for pipe in self._pipes:
            try:
                pipe.send(("stop",))
                pipe.close()
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
        self._pipes = None
        self._processes = None

    def _scatter_gather(self, messages) -> list:
        """Send one request per worker, then collect all replies."""
        for pipe, message in zip(self._pipes, messages):
            pipe.send(message)
        return [pipe.recv() for pipe in self._pipes]

    # ------------------------------------------------------------------
    # one synchronous step
    # ------------------------------------------------------------------
    def _train_results(self, state, batch_index: int):
        if self.mode == "process":
            self._start_processes()
            results = self._scatter_gather(
                [("train", state, batch_index)] * len(self._workers)
            )
        else:
            results = [w.train_step(state, batch_index)
                       for w in self._workers]
        if self._shard_step_seconds is None:
            self._shard_step_seconds = [0.0] * len(results)
        for shard, result in enumerate(results):
            self._shard_step_seconds[shard] += result[3]
        self._train_steps += 1
        return results

    def _val_results(self, state):
        if self.mode == "process":
            self._start_processes()
            return self._scatter_gather([("val", state)] * len(self._workers))
        return [w.val_loss(state) for w in self._workers]

    def _train_step_loss(self, batch_index: int, batch: InstanceBatch) -> float:
        """Shard gradients at the current weights, count-weighted into ``param.grad``.

        Leaves ``sum_s (n_s / n) * grad_s`` — exactly the gradient of the
        global mean loss over all active shops — on the master
        parameters (zeroed by the fit loop) and returns the matching
        weighted loss.
        """
        results = self._train_results(self.model.state_dict(), batch_index)
        total = sum(count for _, count, _, _ in results)
        if total == 0:
            raise RuntimeError("no shard has active shops for role 'train'")
        loss = 0.0
        for shard_loss, count, grads, _ in results:
            if count == 0:
                continue
            weight = count / total
            loss += weight * shard_loss
            for param, grad in zip(self.optimizer.parameters, grads):
                if grad is None:
                    continue
                if param.grad is None:
                    param.grad = weight * grad
                else:
                    param.grad += weight * grad
        return loss

    def _val_loss(self) -> float:
        results = self._val_results(self.model.state_dict())
        total = sum(count for _, count in results)
        if total == 0:
            raise RuntimeError("no shard has active shops for role 'val'")
        return sum(loss * count for loss, count in results) / total

    def shard_timings(self) -> Dict[str, object]:
        """Cumulative per-shard train-step seconds (straggler report).

        ``shard_step_seconds[i]`` is worker ``i``'s self-measured time
        across all synchronous steps so far — the gap between the
        fastest and slowest entry is the per-step straggler wait baked
        into this partitioning.  Feeds
        :meth:`repro.obs.hub.MetricsHub.attach_parallel`.
        """
        return {
            "steps": self._train_steps,
            "shard_step_seconds": list(self._shard_step_seconds or []),
        }

    def fit(self) -> TrainHistory:
        """:meth:`Trainer.fit`, then stop the worker processes."""
        try:
            return super().fit()
        finally:
            self.shutdown()
