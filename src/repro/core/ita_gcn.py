"""ITA-GCN layer (paper §IV-C2, Eq. 8).

One layer produces the next representation of every center node by

* **inter neighbor attention** — CAU messages from every in-neighbor,
  mixed with attention weights ``alpha_{u,v}`` computed from 1xC
  convolutions of both endpoint representations (softmax over each
  node's in-edges), plus
* **intra self attention** — the CAU applied to the node's own series
  (``CAU(H_u, H_u)``), capturing periodic self-shift.

The layer is batched: Q/K/V are projected once per node, gathered per
edge, and neighbor messages are scattered back with ``segment_sum``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..graph.graph import ESellerGraph
from ..nn import functional as F
from ..nn import init
from ..nn.layers import Conv1d
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from .cau import ConvolutionalAttentionUnit
from .config import GaiaConfig

__all__ = ["ITAGCNLayer"]


class ITAGCNLayer(Module):
    """Inter- and intra-temporal-shift-aware graph convolution layer."""

    def __init__(self, config: GaiaConfig, rng: np.random.Generator) -> None:
        super().__init__()
        c = config.channels
        t = config.input_window
        self.config = config
        self.cau = ConvolutionalAttentionUnit(config, rng)
        # alpha components: g(u, v) = mu^T tanh(L_s * H_u + L_d * H_v).
        self.conv_s = Conv1d(c, 1, width=1, rng=rng, padding="causal", bias=False)
        self.conv_d = Conv1d(c, 1, width=1, rng=rng, padding="causal", bias=False)
        self.mu = Parameter(init.normal((t,), rng, std=0.1), name="ita.mu")
        #: Per-edge neighbor-attention weights from the last forward
        #: pass (numpy, length E) — used by the Fig 4 case study.
        self.last_alpha: Optional[np.ndarray] = None
        #: Per-edge CAU attention maps from the last forward pass,
        #: shape ``(E, T, T)``.
        self.last_inter_attention: Optional[np.ndarray] = None
        #: Per-node intra CAU attention maps, shape ``(S, T, T)``.
        self.last_intra_attention: Optional[np.ndarray] = None

    def forward(self, h: Tensor, graph: ESellerGraph,
                trim: Optional[Tuple[int, int]] = None) -> Tensor:
        """Compute the layer output (see class docstring).

        ``trim=None`` is the full layer: one output row per graph node,
        every edge read.  ``trim=(num_out, num_edges)`` computes only
        the first ``num_out`` rows from the first ``num_edges`` edges —
        the layer-wise minibatch computation graph, on a layout where
        what a layer needs is a prefix
        (:class:`repro.graph.sampling.ReceptiveLayout`): ``h`` holds the
        input rows, every one of those edges ends in an output row, and
        Q and the intra attention are computed for output rows only.
        The body is the same; the trimmed case differs in which prefix
        each operand is read from.  It leaves ``last_alpha`` /
        ``last_inter_attention`` / ``last_intra_attention`` as the last
        full forward wrote them: maps over a prefix are not indexed by
        the graph's nodes and edges.
        """
        full = trim is None
        if full and h.shape[0] != graph.num_nodes:
            raise ValueError(
                f"representation rows ({h.shape[0]}) != graph nodes "
                f"({graph.num_nodes})"
            )
        num_out, num_edges = (h.shape[0], graph.num_edges) if full else trim
        src, dst = graph.src[:num_edges], graph.dst[:num_edges]
        # Slicing a tensor records an op: the full layer records none.
        q, k, v = self.cau.project(h, None if full else num_out)
        k_out, v_out = (k, v) if full else (k[:num_out], v[:num_out])

        # Intra self attention: CAU(H_u, H_u) for every output node.
        intra = self.cau.attend(q, k_out, v_out, capture=full)
        intra_attention = self.cau.last_attention

        if src.size == 0:
            if full:
                self.last_intra_attention = intra_attention
                self.last_alpha = np.zeros(0)
                self.last_inter_attention = None
            return intra

        # Inter neighbor attention: CAU(H_u, H_v) batched over edges.
        messages = self.cau.attend(
            F.gather_rows(q, dst), F.gather_rows(k, src), F.gather_rows(v, src),
            capture=full,
        )

        # alpha_{u,v}: scalar gate per edge, softmax over u's in-edges.
        # Both 1x1 gate convolutions read the same h: one bank (the s
        # term of a row that is only read is computed, never gathered).
        terms = F.conv_bank(h, [self.conv_s.weight, self.conv_d.weight])
        s_term, d_term = terms[:, :, 0:1], terms[:, :, 1:2]   # 2x (S, T, 1)
        combined = F.gather_rows(s_term, dst) + F.gather_rows(d_term, src)
        gate = F.tanh(combined).reshape(src.size, -1) @ self.mu   # (E,)
        alpha = F.segment_softmax(gate, dst, num_out)
        if full:
            self.last_intra_attention = intra_attention
            self.last_inter_attention = self.cau.last_attention
            self.last_alpha = alpha.data.copy()

        weighted = messages * alpha.reshape(src.size, 1, 1)
        inter = F.segment_sum(weighted, dst, num_out)             # (S, T, C)
        return inter + intra
