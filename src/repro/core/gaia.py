"""The full Gaia model (paper §IV, Fig 2).

Pipeline: FFL fuses per-timestamp features → TEL extracts multi-scale
temporal patterns → ``L`` stacked ITA-GCN layers learn inter/intra
temporal shift over the e-seller graph → a residual prediction head
(Eq. 9) maps ``H^(L) + E`` to the ``T'``-month forecast through a 1xC
convolution, a ``T x T'`` linear map and a final ReLU.

The model consumes :class:`repro.data.dataset.InstanceBatch` plus an
:class:`repro.graph.graph.ESellerGraph` and predicts in the scaled
(non-negative log) space; the trainer inverse-transforms for metrics.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..data.dataset import InstanceBatch
from ..graph.graph import ESellerGraph
from ..nn import functional as F
from ..nn import init
from ..nn.layers import Conv1d
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from .config import GaiaConfig
from .ffl import FeatureFusionLayer
from .ita_gcn import ITAGCNLayer
from .tel import TemporalEmbeddingLayer

__all__ = ["Gaia"]


class Gaia(Module):
    """Graph neural network with temporal-shift-aware attention."""

    name = "Gaia"

    def __init__(self, config: GaiaConfig, rng: Optional[np.random.Generator] = None,
                 seed: int = 0) -> None:
        super().__init__()
        config.validate()
        if rng is None:
            rng = np.random.default_rng(seed)
        self.config = config
        self.ffl = FeatureFusionLayer(config, rng)
        self.tel = TemporalEmbeddingLayer(config, rng)
        self.layers = [ITAGCNLayer(config, rng) for _ in range(config.num_layers)]
        # Prediction head (Eq. 9).
        self.conv_p = Conv1d(config.channels, 1, width=1, rng=rng, padding="causal")
        self.w_p = Parameter(
            init.glorot_uniform((config.input_window, config.horizon), rng),
            name="gaia.w_p",
        )
        self.b_p = Parameter(init.zeros((config.horizon,)), name="gaia.b_p")

    # ------------------------------------------------------------------
    def embed(self, batch: InstanceBatch) -> Tensor:
        """FFL + TEL: per-node temporal embedding ``E_v`` of shape (S, T, C)."""
        series = Tensor(batch.series_scaled)
        temporal = Tensor(batch.temporal)
        static = Tensor(batch.static)
        fused = self.ffl(series, temporal, static)
        return self.tel(fused)

    @property
    def receptive_depth(self) -> int:
        """A row's forecast reads ``num_layers`` steps upstream of it."""
        return self.config.num_layers

    def forward(self, batch: InstanceBatch, graph: ESellerGraph,
                trim: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> Tensor:
        """Predict scaled GMV for the horizon months, shape ``(S, T')``.

        ``trim=None`` computes every row of ``batch`` from every edge of
        ``graph`` — ``Trainer.predict_raw``, the adapter's drift scoring
        and the paper figures; the recorded trace is what it always was.

        ``trim=(rows_within, edges_into)`` is the forward over a
        :func:`~repro.graph.sampling.receptive_layout` built with
        ``depth=receptive_depth`` — a gateway batch seeded with its
        centers (:class:`~repro.serving.batching.DisjointBatch`), or the
        training graph seeded with the rows the loss reads
        (:func:`~repro.training.trainer.masked_loss`): rows ordered by
        the depth at which a seed first reads them, so that the first
        ``rows_within[d]`` rows sit within ``d`` steps of a seed and the
        first ``edges_into[d]`` edges lead into them.  FFL/TEL embed all
        ``rows_within[L]`` rows; layer ``l`` of ``L`` reads the first
        ``rows_within[L - l + 1]`` rows and ``edges_into[L - l]`` edges
        and writes the first ``rows_within[L - l]`` rows; the head runs
        on the seeds.  Returns ``(rows_within[0], T')`` — the seed rows
        of the untrimmed forward over the whole graph, to 1e-12
        relative in float64 (every kernel is row- or segment-wise; BLAS
        may round a row of a matrix product by its position, one ulp)
        and bit for bit when no edge leads into a seed.
        """
        embedding = self.embed(batch)
        h = embedding
        if trim is None:
            for layer in self.layers:
                h = layer(h, graph)
        else:
            rows_within, edges_into = trim
            for layer, d in zip(self.layers, reversed(range(len(self.layers)))):
                h = layer(h, graph, (int(rows_within[d]), int(edges_into[d])))
            embedding = embedding[:h.shape[0]]
        pooled = self.conv_p(h + embedding)               # (S, T, 1)
        pooled = pooled.reshape(h.shape[0], -1)           # (S, T)
        out = F.linear(pooled, self.w_p, self.b_p)        # (S, T')
        if self.config.final_activation == "relu":
            out = F.relu(out)                             # literal Eq. 9
        return out

    # ------------------------------------------------------------------
    # introspection for the Fig 4 case study
    # ------------------------------------------------------------------
    def intra_attention(self) -> Optional[np.ndarray]:
        """Last layer's per-node intra CAU attention maps ``(S, T, T)``.

        As the last full forward left them (``trim=None``: a direct call,
        ``Trainer.predict_raw``); a trimmed forward — the serving batch,
        the training loss — records nothing.
        """
        return self.layers[-1].last_intra_attention

    def inter_attention(self) -> Optional[np.ndarray]:
        """Last layer's per-edge inter CAU attention maps ``(E, T, T)``.

        As the last full forward left them (``trim=None``: a direct call,
        ``Trainer.predict_raw``); a trimmed forward — the serving batch,
        the training loss — records nothing.
        """
        return self.layers[-1].last_inter_attention

    def neighbor_alpha(self) -> Optional[np.ndarray]:
        """Last layer's per-edge neighbor mixing weights ``(E,)``.

        As the last full forward left them (``trim=None``: a direct call,
        ``Trainer.predict_raw``); a trimmed forward — the serving batch,
        the training loss — records nothing.
        """
        return self.layers[-1].last_alpha
