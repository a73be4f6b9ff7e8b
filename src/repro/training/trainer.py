"""Training loop for graph forecasting models.

The trainer is model-agnostic: anything with ``forward(batch, graph) ->
Tensor (S, H)`` in scaled space and ``parameters()`` can be trained.
:func:`masked_mse` is the repository's one loss — MSE over
:meth:`~repro.data.dataset.ForecastDataset.active_mask` (Eq. 10,
restricted to shops that exist at the cutoff) — for this trainer and for
every shard worker of :mod:`repro.training.parallel`.
:meth:`Trainer.fit` is the one epoch / early-stopping / best-weight
loop; a trainer that computes its step differently overrides
:meth:`Trainer._train_step_loss` and :meth:`Trainer._val_loss`, never
the loop.  Metrics are computed in raw units through the dataset's
scaler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.dataset import ForecastDataset, InstanceBatch
from ..nn import engine
from ..nn import functional as F
from ..nn.module import Module
from ..nn.optim import Adam, clip_grad_norm
from ..nn.tensor import Tensor, no_grad
from ..obs import clock as obs_clock
from ..obs import tracing as obs_tracing
from .metrics import MetricTable, evaluate_forecast

__all__ = ["TrainConfig", "TrainHistory", "Trainer", "masked_mse"]


@dataclass
class TrainConfig:
    """Training hyper-parameters.

    The paper uses Adam with learning rate ``1e-5`` and batch size 32
    on 3M shops; on our small synthetic graphs full-batch training with
    a larger rate converges in far fewer steps, so the default rate is
    higher.  Everything is overridable for fidelity experiments.
    """

    epochs: int = 120
    learning_rate: float = 5e-3
    weight_decay: float = 0.0
    clip_norm: float = 5.0
    patience: int = 20
    min_epochs: int = 10
    verbose: bool = False
    #: Route training steps through the planned execution engine
    #: (:mod:`repro.nn.engine`): trace each train batch once, then
    #: replay the cached plan with reused gradient buffers.  Falls back
    #: to eager execution automatically for dynamic graphs (dropout)
    #: or when the engine mode is ``"eager"``.
    use_engine: bool = True


@dataclass
class TrainHistory:
    """Per-epoch training trace."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    best_epoch: int = -1
    seconds: float = 0.0

    @property
    def epochs_run(self) -> int:
        """Number of epochs actually executed."""
        return len(self.train_loss)


def masked_mse(model: Module, dataset: ForecastDataset, batch: InstanceBatch,
               role: str) -> Tuple[Optional[Tensor], int]:
    """Eq. 10 on one batch: ``(MSE over the active rows, their count)``.

    ``(None, 0)`` when ``dataset`` has no active shop for ``role`` in
    ``batch`` — an error for a full-graph trainer, a zero-weight reply
    for a shard whose rows other shards cover.
    """
    active = dataset.active_mask(batch, role)
    count = int(active.sum())
    if count == 0:
        return None, 0
    pred = model(batch, dataset.graph)
    return F.mse_loss(pred[active], batch.labels_scaled[active]), count


class Trainer:
    """Full-batch trainer with early stopping and best-weight restore."""

    def __init__(self, model: Module, dataset: ForecastDataset,
                 config: Optional[TrainConfig] = None) -> None:
        self.model = model
        self.dataset = dataset
        self.config = config or TrainConfig()
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.history = TrainHistory()
        # One compiled loss per train batch: the batch's arrays/masks are
        # the plan's constants, so keying by batch keeps replay static.
        self._compiled: Dict[int, engine.CompiledLoss] = {}

    # ------------------------------------------------------------------
    def _loss(self, batch: InstanceBatch, role: str) -> Tensor:
        loss, _ = masked_mse(self.model, self.dataset, batch, role)
        if loss is None:
            raise RuntimeError(f"batch has no active shops for role {role!r}")
        return loss

    def _val_loss(self) -> float:
        self.model.eval()
        with no_grad():
            loss = self._loss(self.dataset.val, "val")
        self.model.train()
        return loss.item()

    def _train_step_loss(self, batch_index: int, batch: InstanceBatch) -> float:
        """One forward/backward on a train batch; returns the loss.

        With ``use_engine`` the step runs through a per-batch
        :class:`~repro.nn.engine.CompiledLoss`: identical gradients
        (bit-for-bit — the planned executor replays the same kernels in
        the same order), minus the per-step graph construction.
        """
        if self.config.use_engine and engine.fused_enabled():
            compiled = self._compiled.get(batch_index)
            if compiled is None:
                compiled = engine.CompiledLoss(
                    lambda b=batch: self._loss(b, "train")
                )
                self._compiled[batch_index] = compiled
            return compiled.run()
        loss = self._loss(batch, "train")
        loss.backward()
        return loss.item()

    # ------------------------------------------------------------------
    def fit(self) -> TrainHistory:
        """Train until convergence or the epoch budget; restore best weights."""
        cfg = self.config
        started = obs_clock.now()
        best_val = float("inf")
        best_state = None
        stall = 0
        self.model.train()
        for epoch in range(cfg.epochs):
            epoch_losses = []
            with obs_tracing.span("train.epoch"):
                for batch_index, batch in enumerate(self.dataset.train):
                    with obs_tracing.span("train.step"):
                        self.optimizer.zero_grad()
                        loss_value = self._train_step_loss(batch_index, batch)
                        clip_grad_norm(self.optimizer.parameters,
                                       cfg.clip_norm)
                        self.optimizer.step()
                    epoch_losses.append(loss_value)
                train_loss = float(np.mean(epoch_losses))
                val_loss = self._val_loss()
            self.history.train_loss.append(train_loss)
            self.history.val_loss.append(val_loss)
            if cfg.verbose:
                print(f"epoch {epoch:3d} train {train_loss:.5f} val {val_loss:.5f}")
            if val_loss < best_val - 1e-7:
                best_val = val_loss
                best_state = self.model.state_dict()
                self.history.best_epoch = epoch
                stall = 0
            else:
                stall += 1
                if epoch + 1 >= cfg.min_epochs and stall >= cfg.patience:
                    break
        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        self.history.seconds = obs_clock.now() - started
        return self.history

    # ------------------------------------------------------------------
    def predict_raw(self, batch: InstanceBatch) -> np.ndarray:
        """Forecast in raw GMV units for every shop in the batch."""
        self.model.eval()
        with no_grad():
            pred_scaled = self.model(batch, self.dataset.graph)
        return batch.inverse_scale(pred_scaled.data)

    def evaluate(self, batch: Optional[InstanceBatch] = None,
                 shop_mask: Optional[np.ndarray] = None,
                 role: str = "test") -> MetricTable:
        """Raw-unit metric table on ``batch`` (default: the test batch).

        Evaluation is restricted to shops active at the cutoff and in
        the ``role`` node set (shop split), intersected with
        ``shop_mask`` if given.
        """
        if batch is None:
            batch = self.dataset.test if role == "test" else self.dataset.val
        pred = self.predict_raw(batch)
        active = self.dataset.active_mask(batch, role)
        if shop_mask is not None:
            active = active & np.asarray(shop_mask, dtype=bool)
        return evaluate_forecast(pred, batch.labels, batch.horizon_names, shop_mask=active)
