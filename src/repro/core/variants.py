"""Ablation variants of Gaia (paper Table II).

* ``GaiaNoITA`` — "replace the newly proposed ITA with traditional
  self-attention": graph layers keep the neighbor-mixing weights but use
  *standard* self-attention (width-1 linear projections, no
  shape-aware convolutions) for the node itself, and pass neighbors'
  value projections through **without** cross-series temporal attention
  — i.e. neither inter nor intra temporal shift can be matched.
* ``GaiaNoFFL`` — the fine-grained fusion is replaced by a single linear
  projection of the raw ``[z || f^T || f^S]`` concatenation (no
  per-source projections, no time-dependent biases).
* ``GaiaNoTEL`` — the multi-scale kernel group is replaced by one
  ``{4 x C; C}`` kernel, exactly as the paper describes the variant.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..graph.graph import ESellerGraph
from ..nn import functional as F
from ..nn import init
from ..nn.layers import Conv1d, Linear
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from .config import GaiaConfig
from .gaia import Gaia

__all__ = ["GaiaNoITA", "GaiaNoFFL", "GaiaNoTEL", "build_gaia_variant"]


class _TraditionalAttentionLayer(Module):
    """Graph layer with vanilla self-attention instead of the CAU."""

    def __init__(self, config: GaiaConfig, rng: np.random.Generator) -> None:
        super().__init__()
        c = config.channels
        t = config.input_window
        self.channels = c
        self.proj_q = Linear(c, c, rng, bias=False)
        self.proj_k = Linear(c, c, rng, bias=False)
        self.proj_v = Linear(c, c, rng, bias=False)
        self.attn_s = Linear(c, 1, rng, bias=False)
        self.attn_d = Linear(c, 1, rng, bias=False)
        self.mu = Parameter(init.normal((t,), rng, std=0.1), name="trad.mu")
        self._mask_cache: dict = {}

    def _mask(self, t: int) -> np.ndarray:
        if t not in self._mask_cache:
            self._mask_cache[t] = F.causal_mask(t)
        return self._mask_cache[t]

    def forward(self, h: Tensor, graph: ESellerGraph,
                trim: Optional[Tuple[int, int]] = None) -> Tensor:
        """Compute the layer output (see class docstring).

        ``trim`` is :meth:`repro.core.ita_gcn.ITAGCNLayer.forward`'s:
        ``(num_out, num_edges)`` computes the first ``num_out`` rows from
        the first ``num_edges`` edges of a level-ordered layout — Q and
        the intra attention for output rows only, K/V and the gate terms
        for every row read.  One body; the trimmed case differs in which
        prefix each operand is read from.
        """
        full = trim is None
        num_out, num_edges = (h.shape[0], graph.num_edges) if full else trim
        src, dst = graph.src[:num_edges], graph.dst[:num_edges]
        # Slicing a tensor records an op: the full layer records none.
        q = self.proj_q(h if full else h[:num_out])
        k = self.proj_k(h)
        v = self.proj_v(h)
        k_out, v_out = (k, v) if full else (k[:num_out], v[:num_out])
        # Intra: standard (non-convolutional) causal self-attention.
        scores = (q @ k_out.transpose()) * (1.0 / np.sqrt(self.channels))
        intra = F.masked_softmax(scores, self._mask(h.shape[1])) @ v_out
        if src.size == 0:
            return intra
        # Inter: neighbors' values mixed by alpha, no temporal matching.
        gate_terms = F.gather_rows(self.attn_s(h), dst) + F.gather_rows(self.attn_d(h), src)
        gate = F.tanh(gate_terms).reshape(src.size, -1) @ self.mu
        alpha = F.segment_softmax(gate, dst, num_out)
        weighted = F.gather_rows(v, src) * alpha.reshape(src.size, 1, 1)
        inter = F.segment_sum(weighted, dst, num_out)
        return inter + intra


class _SimpleFusion(Module):
    """Single-projection replacement for the FFL (no fine-grained fusion)."""

    def __init__(self, config: GaiaConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        in_dim = 1 + config.temporal_dim + config.static_dim
        self.proj = Linear(in_dim, config.channels, rng)

    def forward(self, series: Tensor, temporal: Tensor, static: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        s, t = series.shape
        z = series.reshape(s, t, 1)
        static_b = static.reshape(s, 1, -1) + Tensor(
            np.zeros((s, t, self.config.static_dim))
        )
        raw = F.concat([z, temporal, static_b], axis=-1)
        return self.proj(raw)


class _SingleKernelTEL(Module):
    """TEL with one {4 x C; C} kernel instead of the kernel group."""

    def __init__(self, config: GaiaConfig, rng: np.random.Generator) -> None:
        super().__init__()
        c = config.channels
        self.capture = Conv1d(c, c, width=4, rng=rng, padding="causal")
        self.denoise = Conv1d(c, c, width=4, rng=rng, padding="causal")

    def forward(self, fused: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        return F.relu(self.capture(fused)) * F.sigmoid(self.denoise(fused))


class GaiaNoITA(Gaia):
    """Gaia with traditional self-attention in place of ITA (Table II)."""

    name = "Gaia w/o ITA"

    def __init__(self, config: GaiaConfig, rng: Optional[np.random.Generator] = None,
                 seed: int = 0) -> None:
        super().__init__(config, rng=rng, seed=seed)
        variant_rng = np.random.default_rng(seed + 1)
        self.layers = [
            _TraditionalAttentionLayer(config, variant_rng)
            for _ in range(config.num_layers)
        ]


class GaiaNoFFL(Gaia):
    """Gaia with a plain concat-projection instead of the FFL (Table II)."""

    name = "Gaia w/o FFL"

    def __init__(self, config: GaiaConfig, rng: Optional[np.random.Generator] = None,
                 seed: int = 0) -> None:
        super().__init__(config, rng=rng, seed=seed)
        self.ffl = _SimpleFusion(config, np.random.default_rng(seed + 2))


class GaiaNoTEL(Gaia):
    """Gaia with a single temporal kernel instead of the group (Table II)."""

    name = "Gaia w/o TEL"

    def __init__(self, config: GaiaConfig, rng: Optional[np.random.Generator] = None,
                 seed: int = 0) -> None:
        super().__init__(config, rng=rng, seed=seed)
        self.tel = _SingleKernelTEL(config, np.random.default_rng(seed + 3))


def build_gaia_variant(name: str, config: GaiaConfig, seed: int = 0) -> Gaia:
    """Factory for Gaia and its ablations by canonical name."""
    variants = {
        "gaia": Gaia,
        "gaia_no_ita": GaiaNoITA,
        "gaia_no_ffl": GaiaNoFFL,
        "gaia_no_tel": GaiaNoTEL,
    }
    key = name.lower()
    if key not in variants:
        raise KeyError(f"unknown Gaia variant {name!r}; options: {sorted(variants)}")
    return variants[key](config, seed=seed)
