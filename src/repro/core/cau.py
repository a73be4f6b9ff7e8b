"""Convolutional Attention Unit (paper §IV-C1).

The CAU computes, for an edge ``v -> u`` (possibly ``u == v``), a
temporal cross-attention that summarises the influence of ``v``'s series
on ``u``'s at every timestamp:

    Q_u = L^Q_{3xC;C} * H_u
    K_v = L^K_{3xC;C} * H_v
    V_v = L^V_{1xC;C} * H_v
    CAU(H_u, H_v) = softmax(Q_u K_v^T / sqrt(C) + M) V_v

The width-3 convolutions make Q/K *shape-aware* (locality, after
LogTrans), so a rising edge in ``u`` can match a rising edge in ``v``
that happened months earlier — this is exactly how temporal shift is
captured.  ``M`` masks rightward attention (no future leakage).

For efficiency the projections are computed once per node and gathered
per edge; attention itself is batched over edges with 3-D matmuls.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.layers import Conv1d
from ..nn.module import Module
from ..nn.tensor import Tensor
from .config import GaiaConfig

__all__ = ["ConvolutionalAttentionUnit"]


class ConvolutionalAttentionUnit(Module):
    """Temporal-shift-aware cross attention over paired GMV series."""

    def __init__(self, config: GaiaConfig, rng: np.random.Generator) -> None:
        super().__init__()
        c = config.channels
        w = config.cau_kernel_width
        self.channels = c
        self.conv_q = Conv1d(c, c, width=w, rng=rng, padding="causal")
        self.conv_k = Conv1d(c, c, width=w, rng=rng, padding="causal")
        self.conv_v = Conv1d(c, c, width=1, rng=rng, padding="causal")
        self._mask_cache: dict = {}
        #: Attention probabilities of the most recent capturing
        #: :meth:`attend`, shape ``(E, T, T)`` — for the paper's Fig 4
        #: case study.  Raw numpy, detached from the graph.
        self.last_attention: np.ndarray | None = None

    def _mask(self, t: int) -> np.ndarray:
        if t not in self._mask_cache:
            self._mask_cache[t] = F.causal_mask(t)
        return self._mask_cache[t]

    def project(self, h: Tensor, num_queries: Optional[int] = None
                ) -> Tuple[Tensor, Tensor, Tensor]:
        """Per-node Q/K/V projections of ``(S, T, C)`` representations.

        ``num_queries`` projects Q for the first that many rows only (a
        layer computing a prefix of its rows still keys and values every
        row it reads).

        Kept as three separate convolutions on purpose: fusing them into
        one ``conv_bank`` block was measured slower here — the wide
        block makes the input-gradient GEMM grow quadratically in total
        channels, and the sliced outputs turn every downstream attention
        kernel non-contiguous.
        """
        queried = h if num_queries is None else h[:num_queries]
        return self.conv_q(queried), self.conv_k(h), self.conv_v(h)

    def attend(self, q_dst: Tensor, k_src: Tensor, v_src: Tensor,
               capture: bool = True) -> Tensor:
        """Batched attention over edges.

        All inputs are ``(E, T, C)`` gathers (destination queries paired
        with source keys/values); output is ``(E, T, C)``.  ``capture``
        copies the attention maps into :attr:`last_attention`; a forward
        over part of a graph passes ``False`` and leaves it alone.
        """
        t = q_dst.shape[1]
        attention = F.scaled_masked_softmax(
            q_dst @ k_src.transpose(), 1.0 / np.sqrt(self.channels),
            self._mask(t))
        if capture:
            self.last_attention = attention.data.copy()
        return attention @ v_src

    def forward(self, h_dst: Tensor, h_src: Tensor) -> Tensor:
        """Direct CAU(H_u, H_v) on ``(S, T, C)`` inputs (un-batched path)."""
        q = self.conv_q(h_dst)
        k = self.conv_k(h_src)
        v = self.conv_v(h_src)
        return self.attend(q, k, v)
