"""Training loop for graph forecasting models.

The trainer is model-agnostic: anything with ``forward(batch, graph) ->
Tensor (S, H)`` in scaled space and ``parameters()`` can be trained.
:func:`masked_mse` is the repository's one loss — MSE over
:meth:`~repro.data.dataset.ForecastDataset.active_mask` (Eq. 10,
restricted to shops that exist at the cutoff); its body,
:func:`masked_loss`, is also every owner block's of
:mod:`repro.training.parallel` and the online adapter's, and runs the
model only on the rows and edges the loss rows can read.
:meth:`Trainer.fit` is the one epoch / early-stopping / best-weight
loop; a trainer that computes its step differently overrides
:meth:`Trainer._train_step_loss` and :meth:`Trainer._val_loss`, never
the loop.  Metrics are computed in raw units through the dataset's
scaler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..data.dataset import ForecastDataset, InstanceBatch
from ..graph.graph import ESellerGraph
from ..graph.sampling import receptive_layout
from ..nn import engine
from ..nn import functional as F
from ..nn.module import Module
from ..nn.optim import Adam, clip_grad_norm
from ..nn.tensor import Tensor, no_grad
from ..obs import clock as obs_clock
from ..obs import tracing as obs_tracing
from .metrics import MetricTable, evaluate_forecast

__all__ = ["TrainConfig", "TrainHistory", "Trainer", "masked_mse",
           "masked_loss"]


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
    #: to eager execution automatically for dynamic graphs (dropout).
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
    ``batch``.
    """
    active = dataset.active_mask(batch, role)
    count = int(active.sum())
    if count == 0:
        return None, 0
    return masked_loss(model, dataset.graph, batch, active), count


def masked_loss(model: Module, graph: ESellerGraph, batch: InstanceBatch,
                active: np.ndarray) -> Tensor:
    """MSE over the ``active`` rows of ``batch``, forwarding what they read.

    The loss reads the ``active`` rows only, and a model that declares
    an integer :attr:`~repro.nn.module.Module.receptive_depth` reads, for
    those, only the rows within that many ``src -> dst`` steps of them.
    So the model is run on the
    :func:`~repro.graph.sampling.receptive_layout` of ``graph`` seeded
    with the active rows — the layout the serving gateway stitches its
    batches in, the loss rows first and in the order of
    ``labels_scaled[active]`` — with ``trim`` naming the per-layer
    prefixes; rows no loss row can read (other roles' shops nothing
    links to a loss row, the rest of the graph for one owner block) are
    never embedded.  A model that declares ``None`` gets ``batch`` and
    ``graph`` as they are.  Loss and gradients equal the whole-graph forward's to
    rounding (1e-12 relative; GEMMs over fewer rows reassociate), not
    bit for bit.  The layout is rebuilt per call — one in-edge traversal
    from the loss rows, a fraction of a millisecond against the forward
    — and a compiled plan calls this once.
    """
    labels = batch.labels_scaled[active]
    depth = model.receptive_depth
    if depth is None:
        rows, trim = active, {}
    else:
        layout = receptive_layout(graph, np.flatnonzero(active), depth)
        batch, graph = batch.subset(layout.rows), layout.graph
        rows, trim = layout.seed_rows, {
            "trim": (layout.rows_within, layout.edges_into)}
    # A trimmed forward returns the loss rows only, a whole-graph one
    # every row: ``rows`` indexes either.
    pred = model(batch, graph, **trim)
    return F.mse_loss(pred[rows], labels)


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
        self._compiled: Dict[Hashable, engine.CompiledLoss] = {}

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
        """One forward/backward on a train batch; returns the loss."""
        return self._backward(batch_index, lambda: self._loss(batch, "train"))

    def _backward(self, key: Hashable, loss_fn: Callable[[], Tensor]) -> float:
        """Add the gradient of ``loss_fn()`` to ``param.grad``; return the loss.

        With ``use_engine`` the loss runs through the
        :class:`~repro.nn.engine.CompiledLoss` cached under ``key`` (one
        per train batch, or per batch and block): identical gradients
        (bit-for-bit — the planned executor replays the same kernels in
        the same order), minus the per-step graph construction.
        ``loss_fn`` must read the same arrays on every call.
        """
        if self.config.use_engine:
            compiled = self._compiled.get(key)
            if compiled is None:
                compiled = self._compiled[key] = engine.CompiledLoss(loss_fn)
            return compiled.run()
        loss = loss_fn()
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
        ``shop_mask`` if given.  ``role`` picks the batch for ``"test"``
        and ``"val"``; any other role (``"train"`` has a list of
        batches) must come with its ``batch``.
        """
        if batch is None:
            batches = {"test": self.dataset.test, "val": self.dataset.val}
            if role not in batches:
                raise ValueError(
                    f"no default batch for role {role!r}; pass batch= "
                    f"(roles with one: {sorted(batches)})"
                )
            batch = batches[role]
        pred = self.predict_raw(batch)
        active = self.dataset.active_mask(batch, role)
        if shop_mask is not None:
            active = active & np.asarray(shop_mask, dtype=bool)
        return evaluate_forecast(pred, batch.labels, batch.horizon_names, shop_mask=active)
