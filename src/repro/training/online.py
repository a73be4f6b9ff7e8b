"""Online model adaptation: drift detection + warm fine-tune + hot swap.

The monthly pipeline retrains from scratch once a month; between runs
the deployed model slowly drifts away from live sales.
:class:`OnlineAdapter` closes that gap from the event stream:

1. **Ring-buffer windows** — every :class:`~repro.streaming.events.SalesTick`
   lands in a per-shop ring buffer of the freshest months, so the
   adapter knows which shops actually have new evidence (bounded
   memory, no full-table scans).  Ingestion shares the feature store's
   event-time path: a tick the store's watermark rejects never reaches
   a ring buffer either (counted in ``ticks_rejected``), so drift
   windows and feature tables agree on what counts as live data.
2. **Drift detection** — at each month close, the deployed model scores
   the freshest complete window and each shop's scaled forecast error
   updates an EWMA; a shop whose EWMA crosses
   ``OnlineAdapterConfig.drift_threshold`` is *drifted*.
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

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..data.dataset import ForecastDataset, InstanceBatch
from ..deploy.model_server import ModelRegistry
from ..nn import engine
from ..nn.module import Module
from ..nn.optim import Adam, clip_grad_norm
from ..nn.tensor import Tensor, no_grad
from ..obs import tracing as obs_tracing
from ..streaming.events import SalesTick, ShopEvent
from ..streaming.features import StreamingFeatureStore, grow_rows
from .trainer import masked_loss

__all__ = ["OnlineAdapterConfig", "AdaptationReport", "ShopRingWindows",
           "OnlineAdapter"]


@dataclass
class OnlineAdapterConfig:
    """Tuning knobs for one :class:`OnlineAdapter`."""

    #: Per-shop ring-buffer capacity (months of fresh ticks retained).
    window: int = 6
    #: EWMA smoothing for per-shop scaled forecast error.
    ewma_alpha: float = 0.35
    #: A shop drifts when its error EWMA (in scaled-sigma units)
    #: exceeds this.
    drift_threshold: float = 1.25
    #: Adapt only when at least this many shops drifted.
    min_drifted_shops: int = 3
    #: A shop needs this many ring-buffer ticks inside the scored
    #: horizon to count as having fresh evidence.
    min_fresh_ticks: int = 1
    #: Fine-tune steps per adaptation (engine-compiled full-batch).
    adapt_steps: int = 15
    learning_rate: float = 2e-3
    clip_norm: float = 5.0
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


class ShopRingWindows:
    """Per-shop ring buffers of the freshest ``(month, value)`` ticks.

    Fixed ``(num_shops, capacity)`` arrays: each push overwrites the
    shop's oldest slot, so memory is bounded no matter how long the
    stream runs.  Months are tracked explicitly (ticks may arrive late
    or more than once; the ring keeps arrival order).

    >>> ring = ShopRingWindows(2, capacity=2)
    >>> for month in (3, 4, 5):
    ...     ring.push(0, month, float(month))
    >>> ring.recent_ticks(0)[0].tolist()     # oldest slot overwritten
    [4, 5]
    >>> int(ring.ticks_in_range(4, 5)[0])
    2
    """

    def __init__(self, num_shops: int, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.num_shops = int(num_shops)
        self.months = np.full((num_shops, capacity), -1, dtype=np.int64)
        self.values = np.zeros((num_shops, capacity), dtype=np.float64)
        self._next = np.zeros(num_shops, dtype=np.int64)
        self.counts = np.zeros(num_shops, dtype=np.int64)

    def _ensure_capacity(self, shop: int) -> None:
        if shop < 0:
            raise IndexError(f"shop index must be non-negative, got {shop}")
        if shop < self.num_shops:
            return
        self.months = grow_rows(self.months, shop + 1, fill=-1)
        self.values = grow_rows(self.values, shop + 1)
        self._next = grow_rows(self._next, shop + 1)
        self.counts = grow_rows(self.counts, shop + 1)
        self.num_shops = shop + 1

    def push(self, shop: int, month: int, value: float) -> None:
        """Record one tick, evicting the shop's oldest when full."""
        shop = int(shop)
        self._ensure_capacity(shop)
        slot = int(self._next[shop])
        self.months[shop, slot] = int(month)
        self.values[shop, slot] = float(value)
        self._next[shop] = (slot + 1) % self.capacity
        self.counts[shop] = min(self.counts[shop] + 1, self.capacity)

    def state_dict(self) -> dict:
        """Complete ring state, as copies (the checkpoint contract)."""
        return {
            "capacity": int(self.capacity),
            "num_shops": int(self.num_shops),
            "months": self.months.copy(),
            "values": self.values.copy(),
            "next": self._next.copy(),
            "counts": self.counts.copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ShopRingWindows":
        """Rebuild rings from :meth:`state_dict` output, array-identical."""
        ring = cls(int(state["num_shops"]), int(state["capacity"]))
        ring.months = np.array(state["months"], dtype=np.int64)
        ring.values = np.array(state["values"], dtype=np.float64)
        ring._next = np.array(state["next"], dtype=np.int64)
        ring.counts = np.array(state["counts"], dtype=np.int64)
        return ring

    def ticks_in_range(self, lo: int, hi: int) -> np.ndarray:
        """Per-shop count of retained ticks with ``lo <= month <= hi``."""
        return ((self.months >= lo) & (self.months <= hi)).sum(axis=1)

    def recent_ticks(self, shop: int):
        """One shop's retained ``(months, values)``, oldest first.

        The inspection surface of the ring: what fresh evidence the
        adapter is holding for a shop (dashboards, drift post-mortems).
        """
        shop = int(shop)
        if not 0 <= shop < self.num_shops:
            raise IndexError(f"shop {shop} out of range for {self.num_shops}")
        count = int(self.counts[shop])
        if count == 0:
            return (np.zeros(0, dtype=np.int64), np.zeros(0))
        # Slots wrap: the oldest retained tick sits at the write cursor
        # once the ring has filled.
        start = int(self._next[shop]) if count == self.capacity else 0
        order = (start + np.arange(count)) % self.capacity
        return self.months[shop, order], self.values[shop, order]


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
        The event-fed feature planes fresh windows are assembled from.
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
        self.windows = ShopRingWindows(store.num_shops, self.config.window)
        self.error_ewma = np.full(store.num_shops, np.nan)
        self.adaptations: List[AdaptationReport] = []
        self.ticks_ingested = 0
        #: Ticks refused by the store's watermark (never buffered, so
        #: drift evidence can't diverge from the feature tables).
        self.ticks_rejected = 0
        self._last_adapt_month = -(10 ** 9)
        self._last_observed_month = -(10 ** 9)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, event: ShopEvent) -> None:
        """Feed one stream event (only sales ticks are retained).

        Shares the store's event-time admission: a
        :class:`~repro.streaming.events.SalesTick` beyond the store's
        watermark is rejected here too — the fresh windows the adapter
        fine-tunes on are assembled from the store's tables, so evidence
        the tables will never contain must not count as drift.
        """
        if isinstance(event, SalesTick):
            if not self.store.admits_tick(event.month):
                self.ticks_rejected += 1
                return
            self.windows.push(event.shop_index, event.month, event.gmv)
            self.ticks_ingested += 1

    def _ensure_shop_capacity(self) -> None:
        self.error_ewma = grow_rows(self.error_ewma, self.store.num_shops,
                                    fill=np.nan)

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The adapter's fold state: drift EWMAs, rings, counters.

        Deliberately excludes the model/registry/store/graph handles —
        those are reconstructed by the recovery path and the weights
        live in the registry; this is only what the *stream* taught the
        adapter.  Round-trips through
        :func:`~repro.streaming.durable.write_checkpoint` array-for-array.
        """
        return {
            "error_ewma": self.error_ewma.copy(),
            "windows": self.windows.state_dict(),
            "ticks_ingested": int(self.ticks_ingested),
            "ticks_rejected": int(self.ticks_rejected),
            "last_adapt_month": int(self._last_adapt_month),
        }

    def load_state_dict(self, state: dict) -> None:
        """Overwrite the adapter's fold state from :meth:`state_dict` output."""
        self.error_ewma = np.array(state["error_ewma"], dtype=np.float64)
        self.windows = ShopRingWindows.from_state(state["windows"])
        self.ticks_ingested = int(state["ticks_ingested"])
        self.ticks_rejected = int(state["ticks_rejected"])
        self._last_adapt_month = int(state["last_adapt_month"])

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
            "ticks_ingested": int(self.ticks_ingested),
            "ticks_rejected": int(self.ticks_rejected),
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
        counts = self.windows.ticks_in_range(cutoff, month)
        fresh = np.zeros(active.size, dtype=bool)
        limit = min(active.size, counts.size)
        fresh[:limit] = counts[:limit] >= cfg.min_fresh_ticks
        scored = active & fresh
        previous = self.error_ewma[scored]
        updated = np.where(
            np.isnan(previous),
            errors[scored],
            cfg.ewma_alpha * errors[scored] + (1.0 - cfg.ewma_alpha) * previous,
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
                    clip_grad_norm(optimizer.parameters, cfg.clip_norm)
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
