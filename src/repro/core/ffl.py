"""Feature Fusion Layer (paper §IV-A, Eqs. 1–4).

For each e-seller ``v`` and timestamp ``t`` the FFL projects the scalar
GMV value, the auxiliary temporal features and the static features into
a shared ``C``-dimensional space, concatenates them and fuses with a
final projection.  The biases of the temporal and fusion projections are
*time-dependent* (one bias vector per timestamp), exactly as written in
the paper (``b^T_t`` and ``b^F_t``).
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn import init
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from .config import GaiaConfig

__all__ = ["FeatureFusionLayer"]


class FeatureFusionLayer(Module):
    """Fuse GMV value, temporal and static features per timestamp.

    Input shapes: series ``(S, T)``, temporal ``(S, T, DT)``, static
    ``(S, DS)``; output ``(S, T, C)``.
    """

    def __init__(self, config: GaiaConfig, rng: np.random.Generator) -> None:
        super().__init__()
        c = config.channels
        t = config.input_window
        self.config = config
        # Eq. 1: scalar GMV -> C  (z * w_I + b_I).
        self.w_i = Parameter(init.glorot_uniform((1, c), rng), name="ffl.w_i")
        self.b_i = Parameter(init.zeros((c,)), name="ffl.b_i")
        # Eq. 2: temporal features -> C with time-dependent bias b^T_t.
        self.w_t = Parameter(init.glorot_uniform((config.temporal_dim, c), rng),
                             name="ffl.w_t")
        self.b_t = Parameter(init.zeros((t, c)), name="ffl.b_t")
        # Eq. 3: static features -> C.
        self.w_s = Parameter(init.glorot_uniform((config.static_dim, c), rng),
                             name="ffl.w_s")
        self.b_s = Parameter(init.zeros((c,)), name="ffl.b_s")
        # Eq. 4: fusion of the 3C concatenation with time-dependent bias.
        self.w_f = Parameter(init.glorot_uniform((3 * c, c), rng), name="ffl.w_f")
        self.b_f = Parameter(init.zeros((t, c)), name="ffl.b_f")

    def forward(self, series: Tensor, temporal: Tensor, static: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        s, t = series.shape
        if t != self.config.input_window:
            raise ValueError(
                f"series window {t} != configured input_window {self.config.input_window}"
            )
        z = series.reshape(s, t, 1)
        z_tilde = F.linear(z, self.w_i, self.b_i)          # (S, T, C)
        f_t = F.linear(temporal, self.w_t, self.b_t)       # (S, T, C); b_t broadcasts over S
        f_s = F.linear(static, self.w_s, self.b_s).reshape(s, 1, -1)
        f_s = f_s + Tensor(np.zeros((s, t, self.config.channels)))  # broadcast to (S, T, C)
        fused = F.concat([z_tilde, f_t, f_s], axis=-1)     # (S, T, 3C)
        return F.linear(fused, self.w_f, self.b_f)
