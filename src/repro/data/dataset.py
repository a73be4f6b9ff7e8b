"""Instance generation: from database extracts to model-ready batches.

Follows the paper's setup (§V-A): for a *cutoff* month ``c`` the model
sees the previous ``T`` months (``c - T .. c - 1``; zero-padded and
masked when a shop's history is shorter) and predicts the next ``T'``
months (``c .. c + T' - 1``).  Training, validation and test instances
use successively later cutoffs so that test labels never appear in any
training window.

Scaling: GMV enters the models in per-shop-normalised log space (see
:class:`repro.data.scaling.ShopLevelScaler`); each batch carries the
per-shop levels needed to invert its own predictions.  The shop's
scaled level is appended to the static features so models retain the
absolute-scale information.

The default timeline is arranged so that, like the paper, the test
horizon lands on October / November / December.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.graph import ESellerGraph
from .extractors import ESellerGraphBuilder, NodeFeatureExtractor
from .scaling import ShopLevelScaler, StandardScaler
from .synthetic import SyntheticMarketplace, TIMELINE_START_CALENDAR_MONTH

__all__ = [
    "InstanceBatch",
    "ForecastDataset",
    "build_dataset",
    "make_instance_batch",
    "month_name",
]

_MONTH_NAMES = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)


def month_name(month_index: int) -> str:
    """Calendar name of a global timeline month (timeline starts in June)."""
    return _MONTH_NAMES[(TIMELINE_START_CALENDAR_MONTH + month_index) % 12]


@dataclass
class InstanceBatch:
    """All shops' inputs and labels at one cutoff month.

    Attributes
    ----------
    cutoff:
        First label month (inputs cover ``cutoff - T .. cutoff - 1``).
    series:
        Raw GMV input window, shape ``(S, T)``.
    series_scaled:
        Per-shop-normalised log-space input window (masked months are
        exactly zero = "at the shop's level"), shape ``(S, T)``.
    mask:
        Observed-month mask (False where the shop had not opened or the
        window extends before the timeline), shape ``(S, T)``.
    temporal:
        Scaled auxiliary temporal features, shape ``(S, T, DT)``.
    static:
        Static features with the scaled shop level appended, shape
        ``(S, DS)``.
    labels:
        Raw GMV for the horizon months, shape ``(S, H)``.
    labels_scaled:
        Scaled labels, shape ``(S, H)``.
    levels:
        Per-shop log level used by the scaler, shape ``(S,)``.
    horizon_names:
        Calendar names of the horizon months (e.g. ``["Oct", "Nov",
        "Dec"]``).
    """

    cutoff: int
    series: np.ndarray
    series_scaled: np.ndarray
    mask: np.ndarray
    temporal: np.ndarray
    static: np.ndarray
    labels: np.ndarray
    labels_scaled: np.ndarray
    levels: np.ndarray
    scaler: ShopLevelScaler
    horizon_names: List[str] = field(default_factory=list)

    @property
    def num_shops(self) -> int:
        """Number of shops in the batch."""
        return self.series.shape[0]

    @property
    def input_window(self) -> int:
        """Input window length ``T``."""
        return self.series.shape[1]

    @property
    def horizon(self) -> int:
        """Forecast horizon ``T'``."""
        return self.labels.shape[1]

    def inverse_scale(self, scaled: np.ndarray) -> np.ndarray:
        """Map model outputs back to raw GMV units for this batch."""
        return self.scaler.inverse_transform(scaled, self.levels)

    def subset(self, indices: np.ndarray) -> "InstanceBatch":
        """Row-sliced copy for a node subset (ego-subgraph serving).

        ``indices`` follow the same order as the matching subgraph's
        local node ids.  Duplicates are allowed: the serving gateway
        gathers the rows for a whole micro-batch — the concatenated node
        lists of many (possibly overlapping) ego-subgraphs — in one
        call, repeating shared rows so each block-diagonal component
        stays self-contained.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (
            indices.min() < 0 or indices.max() >= self.num_shops
        ):
            raise IndexError(
                f"subset indices out of range [0, {self.num_shops}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return InstanceBatch(
            cutoff=self.cutoff,
            series=self.series[indices],
            series_scaled=self.series_scaled[indices],
            mask=self.mask[indices],
            temporal=self.temporal[indices],
            static=self.static[indices],
            labels=self.labels[indices],
            labels_scaled=self.labels_scaled[indices],
            levels=self.levels[indices],
            scaler=self.scaler,
            horizon_names=list(self.horizon_names),
        )


@dataclass
class ForecastDataset:
    """Train/val/test views sharing one e-seller graph.

    Two split protocols are supported:

    * ``"shop"`` (default) — the paper's industrial protocol: one
      cutoff, all shops in one graph, with *shops* partitioned into
      train/val/test sets (transductive, like AGL deployments that
      retrain monthly and score held-out / newcoming sellers).  The
      three batches are then views of the same cutoff and the
      ``*_nodes`` masks select the role of each shop.
    * ``"time"`` — rolling-origin: earlier cutoffs train, later ones
      validate/test; node masks are all-true.
    """

    graph: ESellerGraph
    train: List[InstanceBatch]
    val: InstanceBatch
    test: InstanceBatch
    scaler: ShopLevelScaler
    history_lengths: np.ndarray
    input_window: int
    horizon: int
    split: str = "time"
    train_nodes: Optional[np.ndarray] = None
    val_nodes: Optional[np.ndarray] = None
    test_nodes: Optional[np.ndarray] = None
    #: The fitted auxiliary-feature scaler.  Kept so streaming consumers
    #: (:class:`repro.streaming.features.StreamingFeatureStore`) can
    #: assemble later windows with the deployment-time scaling.
    temporal_scaler: Optional[StandardScaler] = None

    def node_mask(self, role: str) -> np.ndarray:
        """Boolean shop selector for ``"train"`` / ``"val"`` / ``"test"``."""
        masks = {"train": self.train_nodes, "val": self.val_nodes,
                 "test": self.test_nodes}
        if role not in masks:
            raise KeyError(f"unknown role {role!r}")
        mask = masks[role]
        if mask is None:
            return np.ones(self.test.num_shops, dtype=bool)
        return mask

    def active_mask(self, batch: InstanceBatch, role: str) -> np.ndarray:
        """Shops with an observed input month in ``batch`` and in the ``role`` set.

        The one definition of the population Eq. 10's loss and every
        metric table average over.
        """
        return batch.mask.any(axis=1) & self.node_mask(role)

    def new_shop_mask(self, threshold: int = 10) -> np.ndarray:
        """Paper's "New Shop Group": history < ``threshold`` months at test."""
        return self.history_lengths < threshold

    @property
    def static_dim(self) -> int:
        """Static feature dimension (includes the appended level)."""
        return self.test.static.shape[-1]

    @property
    def temporal_dim(self) -> int:
        """Auxiliary temporal feature dimension."""
        return self.test.temporal.shape[-1]


def _window(
    table: np.ndarray, cutoff: int, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Slice ``table[:, cutoff-width:cutoff]`` with left zero-padding.

    Returns the window and a validity mask marking in-timeline columns.
    """
    n = table.shape[0]
    start = cutoff - width
    trailing_shape = table.shape[2:]
    window = np.zeros((n, width) + trailing_shape, dtype=np.float64)
    valid = np.zeros((n, width), dtype=bool)
    lo = max(start, 0)
    if lo < cutoff:
        window[:, lo - start:width] = table[:, lo:cutoff]
        valid[:, lo - start:width] = True
    return window, valid


def make_instance_batch(
    gmv: np.ndarray,
    observed: np.ndarray,
    temporal: np.ndarray,
    static: np.ndarray,
    cutoff: int,
    input_window: int,
    horizon: int,
    scaler: ShopLevelScaler,
    temporal_scaler: StandardScaler,
) -> InstanceBatch:
    """Assemble one :class:`InstanceBatch` from raw feature tables.

    The single window-assembly path shared by the offline dataset
    builder and the streaming feature store
    (:class:`~repro.streaming.features.StreamingFeatureStore`) — both
    must slice, mask and scale identically for the streaming
    equivalence guarantee to hold.
    """
    series, valid = _window(gmv, cutoff, input_window)
    observed_window, _ = _window(observed.astype(np.float64), cutoff, input_window)
    mask = valid & (observed_window > 0.5)
    temporal_window, _ = _window(temporal, cutoff, input_window)
    labels = gmv[:, cutoff:cutoff + horizon]
    names = [month_name(cutoff + h) for h in range(horizon)]

    levels = ShopLevelScaler.levels(series, mask, fallback=scaler.global_level)
    series_scaled = scaler.transform(series, levels) * mask
    # Scale-aware static block: append the shop's level (standardised by
    # the residual sigma so magnitudes are comparable).
    level_feature = (levels - scaler.global_level)[:, None] / scaler.sigma
    static_with_level = np.concatenate([static, level_feature], axis=-1)
    return InstanceBatch(
        cutoff=cutoff,
        series=series,
        series_scaled=series_scaled,
        mask=mask,
        temporal=temporal_scaler.transform(temporal_window),
        static=static_with_level,
        labels=labels,
        labels_scaled=scaler.transform(labels, levels),
        levels=levels,
        scaler=scaler,
        horizon_names=names,
    )


def build_dataset(
    market: SyntheticMarketplace,
    input_window: int = 24,
    horizon: int = 3,
    split: str = "shop",
    train_fraction: float = 0.70,
    val_fraction: float = 0.15,
    split_seed: int = 101,
    train_cutoffs: Optional[Sequence[int]] = None,
    val_cutoff: Optional[int] = None,
    test_cutoff: Optional[int] = None,
) -> ForecastDataset:
    """Assemble a forecasting dataset from a synthetic marketplace.

    All feature blocks come from the database extractors (the Fig 5
    pipeline), not from the simulator's ground truth directly, so this
    function also exercises the ingestion/aggregation path end to end.

    ``split="shop"`` (default) mirrors the paper's industrial protocol:
    one cutoff at the end of the timeline (horizon = Oct/Nov/Dec), all
    shops in one transductive graph, shops partitioned into train / val
    / test roles.  ``split="time"`` gives rolling-origin cutoffs
    instead (train on earlier months, validate/test later).
    """
    cfg = market.config
    total = cfg.num_months
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if input_window < 2:
        raise ValueError("input_window must be >= 2")
    if split not in ("shop", "time"):
        raise ValueError(f"unknown split {split!r}")
    if test_cutoff is None:
        test_cutoff = total - horizon
    if test_cutoff + horizon > total:
        raise ValueError("test cutoff + horizon exceeds the timeline")

    if split == "shop":
        train_cutoffs = [test_cutoff]
        val_cutoff = test_cutoff
    else:
        if val_cutoff is None:
            val_cutoff = test_cutoff - horizon
        if train_cutoffs is None:
            # Span a full year of cutoffs: the test horizon (Oct-Dec)
            # contains festival spikes, so training labels must include
            # the previous year's festival months.
            train_cutoffs = list(range(max(horizon + 2, val_cutoff - 10), val_cutoff))
        if not train_cutoffs:
            raise ValueError("no training cutoffs")
        for c in list(train_cutoffs) + [val_cutoff]:
            if c < 1:
                raise ValueError(f"cutoff {c} leaves no history")

    extractor = NodeFeatureExtractor(market.database, total)
    features = extractor.extract(0, total)
    graph = ESellerGraphBuilder(market.database).build(bidirectional=True)

    # Fit scalers on input-window data only (labels never touch them).
    fit_cutoff = min(min(train_cutoffs), val_cutoff)
    fit_window, fit_valid = _window(features.gmv, fit_cutoff, input_window)
    fit_obs, _ = _window(features.observed.astype(np.float64), fit_cutoff, input_window)
    scaler = ShopLevelScaler().fit(fit_window, fit_valid & (fit_obs > 0.5))
    temporal_scaler = StandardScaler().fit(features.temporal[:, :fit_cutoff])

    def make(cutoff: int) -> InstanceBatch:
        return make_instance_batch(
            features.gmv,
            features.observed,
            features.temporal,
            features.static,
            cutoff,
            input_window,
            horizon,
            scaler,
            temporal_scaler,
        )

    history = market.history_lengths(test_cutoff)

    if split == "time":
        return ForecastDataset(
            graph=graph,
            train=[make(c) for c in train_cutoffs],
            val=make(val_cutoff),
            test=make(test_cutoff),
            scaler=scaler,
            history_lengths=history,
            input_window=input_window,
            horizon=horizon,
            split="time",
            temporal_scaler=temporal_scaler,
        )

    if not 0.0 < train_fraction < 1.0 or not 0.0 < val_fraction < 1.0:
        raise ValueError("fractions must be in (0, 1)")
    if train_fraction + val_fraction >= 1.0:
        raise ValueError("train_fraction + val_fraction must leave room for test")
    batch = make(test_cutoff)
    # Stratified-ish split: permute shops, assign roles by fraction.
    rng = np.random.default_rng(split_seed)
    order = rng.permutation(batch.num_shops)
    n_train = int(round(batch.num_shops * train_fraction))
    n_val = int(round(batch.num_shops * val_fraction))
    train_nodes = np.zeros(batch.num_shops, dtype=bool)
    val_nodes = np.zeros(batch.num_shops, dtype=bool)
    test_nodes = np.zeros(batch.num_shops, dtype=bool)
    train_nodes[order[:n_train]] = True
    val_nodes[order[n_train:n_train + n_val]] = True
    test_nodes[order[n_train + n_val:]] = True
    return ForecastDataset(
        graph=graph,
        train=[batch],
        val=batch,
        test=batch,
        scaler=scaler,
        history_lengths=history,
        input_window=input_window,
        horizon=horizon,
        split="shop",
        train_nodes=train_nodes,
        val_nodes=val_nodes,
        test_nodes=test_nodes,
        temporal_scaler=temporal_scaler,
    )
