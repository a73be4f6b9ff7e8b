"""Temporal Embedding Layer (paper §IV-B, Eqs. 5–7).

Coupled groups of multi-scale temporal convolutions: a *capture* group
``L^C`` extracts temporal patterns at ``K`` kernel widths (``2, 4, ...,
2K``; each contributing ``C/K`` channels) and a *denoise* group ``L^D``
with the same geometry gates them:

    E_v = ReLU(S^C_v) (Hadamard) Sigmoid(S^D_v)

Convolutions are causal (left zero-padding) so that ``E_v[t]`` never
sees months after ``t`` — consistent with the CAU's rightward-attention
mask and required for leak-free forecasting.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.layers import Conv1d, Dropout, conv_bank
from ..nn.module import Module
from ..nn.tensor import Tensor
from .config import GaiaConfig

__all__ = ["TemporalEmbeddingLayer"]


class TemporalEmbeddingLayer(Module):
    """Multi-scale gated temporal convolutions over fused features.

    Input/output shape ``(S, T, C)``.
    """

    def __init__(self, config: GaiaConfig, rng: np.random.Generator) -> None:
        super().__init__()
        config.validate()
        c = config.channels
        k = config.num_scales
        per_scale = c // k
        self.config = config
        # Kernel group widths 2, 4, ..., 2K (paper: {2k x C; C/K}).
        self.capture = [
            Conv1d(c, per_scale, width=2 * (i + 1), rng=rng, padding="causal")
            for i in range(k)
        ]
        self.denoise = [
            Conv1d(c, per_scale, width=2 * (i + 1), rng=rng, padding="causal")
            for i in range(k)
        ]
        self.dropout = Dropout(config.dropout, rng) if config.dropout > 0 else None

    def forward(self, fused: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        # Each group is one bank: one im2col and one GEMM over its kernels.
        captured = conv_bank(fused, self.capture)                             # Eq. 5
        denoised = conv_bank(fused, self.denoise)                             # Eq. 6
        embedding = F.relu(captured) * F.sigmoid(denoised)                    # Eq. 7
        if self.dropout is not None:
            embedding = self.dropout(embedding)
        return embedding
