"""MTGNN baseline (Wu et al., KDD 2020) — the paper's strongest baseline.

Three signature components, all implemented:

* **graph learning layer** — an adjacency learned from two node
  embedding tables, ``A = ReLU(tanh(alpha(E1 E2^T - E2 E1^T)))`` with
  top-k sparsification per row (the learned graph is used *instead of*
  the given one, which is MTGNN's defining trait);
* **mix-hop propagation** — ``H_out = sum_k beta_k A_hat^k H W_k`` with a
  retention mix toward the input;
* **dilated inception temporal convolution** — parallel causal
  convolutions at several widths and dilations, gated tanh × sigmoid.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..data.dataset import InstanceBatch
from ..graph.graph import ESellerGraph
from ..nn import engine
from ..nn import functional as F
from ..nn import init
from ..nn.layers import Conv1d, LayerNorm, Linear, conv_bank
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from .common import BaselineConfig, ForecastHead, SequenceInput

__all__ = ["GraphLearningLayer", "MTGNN"]


class GraphLearningLayer(Module):
    """Learn a sparse directed adjacency from node embeddings."""

    def __init__(self, num_nodes: int, embed_dim: int, rng: np.random.Generator,
                 top_k: int = 8, alpha: float = 3.0) -> None:
        super().__init__()
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.top_k = top_k
        self.alpha = alpha
        self.embed1 = Parameter(init.normal((num_nodes, embed_dim), rng, std=0.1),
                                name="mtgnn.embed1")
        self.embed2 = Parameter(init.normal((num_nodes, embed_dim), rng, std=0.1),
                                name="mtgnn.embed2")
        self.lin1 = Linear(embed_dim, embed_dim, rng, bias=False)
        self.lin2 = Linear(embed_dim, embed_dim, rng, bias=False)

    def forward(self) -> Tensor:
        """Compute the layer output (see class docstring)."""
        m1 = F.tanh(self.lin1(self.embed1) * self.alpha)
        m2 = F.tanh(self.lin2(self.embed2) * self.alpha)
        raw = m1 @ m2.transpose() - m2 @ m1.transpose()
        adj = F.relu(F.tanh(raw * self.alpha))
        # Top-k sparsification: constant (non-differentiable) mask.  The
        # mask depends on the current adjacency *values*, so a compiled
        # plan must not freeze it — flag any active trace as dynamic.
        engine.mark_dynamic("mtgnn top-k adjacency mask")
        data = adj.data
        n = data.shape[0]
        k = min(self.top_k, n)
        keep = np.zeros_like(data)
        top_idx = np.argpartition(-data, kth=k - 1, axis=1)[:, :k]
        rows = np.repeat(np.arange(n), k)
        keep[rows, top_idx.reshape(-1)] = 1.0
        masked = adj * Tensor(keep)
        # Row-normalise.
        row_sum = masked.sum(axis=1, keepdims=True) + 1e-8
        return masked / row_sum


class _MixHopPropagation(Module):
    """``H_out = sum_k beta^k A^k H W_k`` with input retention."""

    def __init__(self, channels: int, rng: np.random.Generator, depth: int = 2,
                 beta: float = 0.5) -> None:
        super().__init__()
        self.depth = depth
        self.beta = beta
        self.projections = [
            Linear(channels, channels, rng, bias=False) for _ in range(depth + 1)
        ]

    def forward(self, x: Tensor, adj: Tensor) -> Tensor:
        # x: (S, T, C); adjacency mixes the node axis per timestep.
        """Compute the layer output (see class docstring)."""
        out = self.projections[0](x)
        h = x
        for k in range(1, self.depth + 1):
            mixed = (adj @ h.transpose((1, 0, 2))).transpose((1, 0, 2))
            h = mixed * self.beta + x * (1.0 - self.beta)
            out = out + self.projections[k](h)
        return F.relu(out)


class _DilatedInception(Module):
    """Parallel causal convolutions at several (width, dilation) scales.

    Dilation is realised by spacing kernel taps: a width-2 kernel with
    dilation ``d`` is a width ``d + 1`` kernel whose interior taps are
    structurally zero.
    """

    WIDTHS = (2, 3, 5)

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        # Split channels across branches; the first takes the remainder.
        per = channels // len(self.WIDTHS)
        sizes = [channels - per * (len(self.WIDTHS) - 1)] + [per] * (len(self.WIDTHS) - 1)
        self.filter_convs = [
            Conv1d(channels, size, width=w, rng=rng, padding="causal")
            for size, w in zip(sizes, self.WIDTHS)
        ]
        self.gate_convs = [
            Conv1d(channels, size, width=w, rng=rng, padding="causal")
            for size, w in zip(sizes, self.WIDTHS)
        ]

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        filters = conv_bank(x, self.filter_convs)
        gates = conv_bank(x, self.gate_convs)
        return F.tanh(filters) * F.sigmoid(gates)


class _MTGNNBlock(Module):
    """Temporal inception + mix-hop propagation with residuals."""

    def __init__(self, config: BaselineConfig, rng: np.random.Generator) -> None:
        super().__init__()
        c = config.channels
        self.temporal = _DilatedInception(c, rng)
        self.spatial = _MixHopPropagation(c, rng)
        self.norm = LayerNorm(c)

    def forward(self, x: Tensor, adj: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        h = self.temporal(x)
        h = self.spatial(h, adj)
        return self.norm(h + x)


class MTGNN(Module):
    """MTGNN forecaster with a learned graph (paper sets 3 layers)."""

    name = "MTGNN"
    kind = "neural"

    def __init__(self, config: BaselineConfig,
                 rng: Optional[np.random.Generator] = None, seed: int = 0,
                 num_blocks: int = 3, graph_embed_dim: int = 8,
                 top_k: int = 8) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(seed)
        config.validate()
        self.config = config
        self._rng = rng
        self._graph_embed_dim = graph_embed_dim
        self._top_k = top_k
        self.input = SequenceInput(config, rng)
        self.graph_learner: Optional[GraphLearningLayer] = None
        self.blocks = [_MTGNNBlock(config, rng) for _ in range(num_blocks)]
        self.head = ForecastHead(config, rng)

    def _learner(self, num_nodes: int) -> GraphLearningLayer:
        if self.graph_learner is None or \
                self.graph_learner.embed1.data.shape[0] != num_nodes:
            self.graph_learner = GraphLearningLayer(
                num_nodes, self._graph_embed_dim, self._rng, top_k=self._top_k
            )
        return self.graph_learner

    def forward(self, batch: InstanceBatch, graph: ESellerGraph) -> Tensor:
        """Compute the layer output (see class docstring)."""
        adj = self._learner(graph.num_nodes)()
        h = self.input(batch)
        for block in self.blocks:
            h = block(h, adj)
        return self.head(h)
