"""Online model adaptation: drift detection + warm fine-tune + hot swap.

The monthly pipeline retrains from scratch once a month; between runs
the deployed model slowly drifts away from live sales.
:class:`OnlineAdapter` closes that gap from the event stream:

1. **Fresh evidence** — the adapter never sees the event stream.  The
   :class:`~repro.streaming.features.StreamingFeatureStore` is the one
   fold of it, and its ``ticked`` table records which shop-months
   received an accepted :class:`~repro.streaming.events.SalesTick`.  A
   tick the store's watermark drops is in neither the tables nor the
   evidence, so drift windows and feature tables cannot disagree.
2. **Drift detection** — at each month close, the deployed model scores
   the freshest complete window; each active shop with an accepted tick
   inside that window's horizon updates its scaled-error EWMA, and a
   shop whose EWMA crosses ``OnlineAdapterConfig.drift_threshold`` is
   *drifted*.
3. **Warm fine-tune** — when enough shops drift, the adapter warm-starts
   from the registry's latest weights and runs a few engine-compiled
   steps (:class:`~repro.nn.engine.CompiledLoss`, same bit-exact
   machinery as the offline trainer) on the fresh window, over all
   active shops so adapted sellers don't cannibalise stable ones.
4. **Hot swap** — the adapted weights go out through
   :meth:`~repro.deploy.model_server.ModelRegistry.publish`; any
   subscribed :class:`~repro.serving.gateway.ServingGateway` swaps
   its weights and purges superseded cached results on the spot.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from ..data.dataset import ForecastDataset, InstanceBatch
from ..deploy.model_server import ModelRegistry
from ..nn import engine
from ..nn.module import Module
from ..nn.optim import Adam, clip_grad_norm
from ..nn.tensor import Tensor, no_grad
from ..obs import tracing as obs_tracing
from ..streaming.features import StreamingFeatureStore, grow_rows
from .trainer import masked_loss

__all__ = ["OnlineAdapterConfig", "AdaptationReport", "OnlineAdapter"]

#: EWMA smoothing for per-shop scaled forecast error.
_EWMA_ALPHA = 0.35
#: Gradient-norm clip of every fine-tune step.
_CLIP_NORM = 5.0


@dataclass
class OnlineAdapterConfig:
    """Tuning knobs for one :class:`OnlineAdapter`."""

    #: A shop drifts when its error EWMA (in scaled-sigma units)
    #: exceeds this.
    drift_threshold: float = 1.25
    #: Adapt only when at least this many shops drifted.
    min_drifted_shops: int = 3
    #: Fine-tune steps per adaptation (engine-compiled full-batch).
    adapt_steps: int = 15
    learning_rate: float = 2e-3
    #: Months to wait after a publish before adapting again.
    cooldown_months: int = 1


@dataclass
class AdaptationReport:
    """Record of one drift-triggered fine-tune + publish."""

    month: int
    cutoff: int
    num_drifted: int
    drifted_shops: np.ndarray
    pre_loss: float
    post_loss: float
    version: int
    steps: int


class OnlineAdapter:
    """Drift-aware online fine-tuning of the deployed model.

    Parameters
    ----------
    model:
        Registry-compatible workspace instance; its weights are
        overwritten by the registry's latest version before every score
        and fine-tune, so the adapter always starts warm from what is
        actually serving.
    registry:
        Source of deployed weights and sink for adapted ones; gateways
        subscribed to it hot-swap automatically on publish.
    store:
        The event-fed feature planes fresh windows are assembled from;
        its ``ticked`` table says which shops have fresh evidence.
    graph:
        Live graph (a :class:`~repro.streaming.dynamic_graph.DynamicGraph`
        or a static :class:`~repro.graph.graph.ESellerGraph`).
    dataset:
        Deployment snapshot supplying the frozen scalers and window
        geometry (``input_window`` / ``horizon``).
    """

    def __init__(
        self,
        model: Module,
        registry: ModelRegistry,
        store: StreamingFeatureStore,
        graph,
        dataset: ForecastDataset,
        config: Optional[OnlineAdapterConfig] = None,
    ) -> None:
        if dataset.temporal_scaler is None:
            raise ValueError(
                "dataset must carry its temporal_scaler (rebuild it with a "
                "current build_dataset) for streaming window assembly"
            )
        self.model = model
        self.registry = registry
        self.store = store
        self.graph = graph
        self.dataset = dataset
        self.config = config or OnlineAdapterConfig()
        self.error_ewma = np.full(store.num_shops, np.nan)
        self.adaptations: List[AdaptationReport] = []
        self._last_adapt_month = -(10 ** 9)
        self._last_observed_month = -(10 ** 9)

    def _ensure_shop_capacity(self) -> None:
        self.error_ewma = grow_rows(self.error_ewma, self.store.num_shops,
                                    fill=np.nan)

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The adapter's month-close state: drift EWMAs and adaptations.

        Deliberately excludes the model/registry/store/graph handles —
        those are reconstructed by the recovery path, the weights live
        in the registry and the fresh evidence in the store.  It holds
        everything :meth:`drift_report` reads, so a recovered adapter
        reports what the never-crashed one does.  Round-trips through
        :func:`~repro.streaming.durable.write_checkpoint`: the one
        array goes to ``arrays.npz``, the rest to the JSON manifest.
        """
        return {
            "error_ewma": self.error_ewma.copy(),
            "last_adapt_month": int(self._last_adapt_month),
            "last_observed_month": int(self._last_observed_month),
            "adaptations": [
                {**asdict(report),
                 "drifted_shops": report.drifted_shops.tolist()}
                for report in self.adaptations
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Overwrite the month-close state from :meth:`state_dict` output."""
        self.error_ewma = np.array(state["error_ewma"], dtype=np.float64)
        self._last_adapt_month = int(state["last_adapt_month"])
        self._last_observed_month = int(state["last_observed_month"])
        self.adaptations = [
            AdaptationReport(**{
                **report,
                "drifted_shops": np.asarray(report["drifted_shops"],
                                            dtype=np.int64)})
            for report in state["adaptations"]
        ]

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def _fresh_window(self, month: int) -> Optional[InstanceBatch]:
        """The freshest complete window: labels end at ``month``.

        ``None`` while the timeline is too short for a full window —
        including ``cutoff < input_window``, which
        :meth:`~repro.streaming.features.StreamingFeatureStore.instance_batch`
        rejects (the streaming path never zero-pads history).
        """
        cutoff = month - self.dataset.horizon + 1
        if cutoff < 1 or cutoff < self.dataset.input_window \
                or month >= self.store.num_months:
            return None
        return self.store.instance_batch(
            cutoff,
            self.dataset.input_window,
            self.dataset.horizon,
            self.dataset.scaler,
            self.dataset.temporal_scaler,
        )

    def _shop_errors(self, batch: InstanceBatch, graph) -> np.ndarray:
        """Per-shop scaled MAE of the current weights over the horizon."""
        self.model.eval()
        with no_grad():
            pred = self.model(batch, graph)
        return np.abs(pred.data - batch.labels_scaled).mean(axis=1)

    def drifted_shops(self) -> np.ndarray:
        """Indices currently past the drift threshold."""
        ewma = self.error_ewma
        return np.flatnonzero(~np.isnan(ewma)
                              & (ewma > self.config.drift_threshold))

    def drift_report(self) -> dict:
        """Serialisable drift/fine-tune state (the health-probe view).

        ``in_cooldown`` reflects the last *observed* month against the
        last adaptation month — during cooldown, fresh drift evidence
        accumulates without triggering a fine-tune, which a probe must
        read as "working as designed", not "stuck".
        """
        last = self.adaptations[-1] if self.adaptations else None
        return {
            "num_drifted": int(self.drifted_shops().size),
            "adaptations": len(self.adaptations),
            "last_adapt_month": int(self._last_adapt_month),
            "in_cooldown": bool(
                self.adaptations
                and (self._last_observed_month - self._last_adapt_month
                     < self.config.cooldown_months)
            ),
            "last_post_loss": None if last is None else float(last.post_loss),
            "model_version": None if last is None else int(last.version),
        }

    # ------------------------------------------------------------------
    # the month-close hook
    # ------------------------------------------------------------------
    def observe_month(self, month: int) -> Optional[AdaptationReport]:
        """Close one month: update drift EWMAs, maybe fine-tune + publish.

        Returns the :class:`AdaptationReport` when an adaptation was
        published, else ``None``.
        """
        cfg = self.config
        self._ensure_shop_capacity()
        self._last_observed_month = max(self._last_observed_month, month)
        batch = self._fresh_window(month)
        if batch is None:
            return None
        cutoff = month - self.dataset.horizon + 1
        graph = self.graph.as_graph()
        if self.registry.num_versions:
            self.registry.load_into(self.model)
        errors = self._shop_errors(batch, graph)
        active = batch.mask.any(axis=1)
        fresh = self.store.ticked[:, cutoff:month + 1].any(axis=1)
        scored = active & fresh
        previous = self.error_ewma[scored]
        updated = np.where(
            np.isnan(previous),
            errors[scored],
            _EWMA_ALPHA * errors[scored] + (1.0 - _EWMA_ALPHA) * previous,
        )
        self.error_ewma[scored] = updated

        drifted = scored & (np.nan_to_num(self.error_ewma, nan=0.0)
                            > cfg.drift_threshold)
        if int(drifted.sum()) < cfg.min_drifted_shops:
            return None
        if month - self._last_adapt_month < cfg.cooldown_months:
            return None
        return self._adapt(month, cutoff, batch, graph, active, drifted)

    def _adapt(self, month: int, cutoff: int, batch: InstanceBatch, graph,
               active: np.ndarray, drifted: np.ndarray) -> AdaptationReport:
        """Warm fine-tune on the fresh window and hot-swap via publish."""
        cfg = self.config

        def loss_fn() -> Tensor:
            return masked_loss(self.model, graph, batch, active)

        self.model.train()
        optimizer = Adam(self.model.parameters(), lr=cfg.learning_rate)
        compiled = engine.CompiledLoss(loss_fn)
        pre_loss = float("nan")
        with obs_tracing.span("train.adapt"):
            for step in range(cfg.adapt_steps):
                with obs_tracing.span("train.step"):
                    optimizer.zero_grad()
                    loss_value = compiled.run()
                    if step == 0:
                        pre_loss = loss_value
                    clip_grad_norm(optimizer.parameters, _CLIP_NORM)
                    optimizer.step()
        self.model.eval()
        # Score the weights actually being published (the loop's last
        # reading predates its final optimizer step).
        with no_grad():
            post_loss = float(loss_fn().data)

        version = self.registry.publish(
            self.model,
            trained_at_month=month,
            metadata={
                "online_adaptation": 1.0,
                "drifted_shops": float(drifted.sum()),
                "pre_loss": pre_loss,
                "post_loss": post_loss,
            },
        )
        # Re-score so adapted shops leave the drifted set on real
        # improvement only (no blind reset).
        self.error_ewma[drifted] = self._shop_errors(batch, graph)[drifted]
        report = AdaptationReport(
            month=month,
            cutoff=cutoff,
            num_drifted=int(drifted.sum()),
            drifted_shops=np.flatnonzero(drifted),
            pre_loss=pre_loss,
            post_loss=post_loss,
            version=version.version,
            steps=cfg.adapt_steps,
        )
        self.adaptations.append(report)
        self._last_adapt_month = month
        return report
