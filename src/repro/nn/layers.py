"""Reusable neural-network layers built on the autograd engine.

These are the building blocks shared by Gaia and the baselines: dense
projections, time-axis convolutions, embeddings, layer norm, dropout and a
simple GRU cell (for the GeniePath depth gate and recurrent baselines).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Linear",
    "Conv1d",
    "conv_bank",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "GRUCell",
    "LSTMCell",
]


class Linear(Module):
    """Affine map ``y = x W + b`` applied to the last axis."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.glorot_uniform((in_features, out_features), rng),
                                name="linear.weight")
        self.bias = Parameter(init.zeros((out_features,)), name="linear.bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        return F.linear(x, self.weight, self.bias)


class Conv1d(Module):
    """Time-axis convolution for ``(B, T, C_in)`` tensors.

    Mirrors the paper's kernel notation ``L_{w x C; c}``: ``width`` spans
    timestamps, the kernel sees all input channels, and ``out_channels``
    kernels are applied.  ``padding`` defaults to causal so model stacks
    can never leak future GMV values.
    """

    def __init__(self, in_channels: int, out_channels: int, width: int,
                 rng: np.random.Generator, bias: bool = True,
                 padding: str = "causal") -> None:
        super().__init__()
        if width < 1:
            raise ValueError(f"kernel width must be >= 1, got {width}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.width = width
        self.padding = padding
        self.weight = Parameter(init.glorot_uniform((width, in_channels, out_channels), rng),
                                name="conv1d.weight")
        self.bias = Parameter(init.zeros((out_channels,)), name="conv1d.bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        return F.conv1d(x, self.weight, self.bias, padding=self.padding)


def conv_bank(x: Tensor, convs: Sequence[Conv1d]) -> Tensor:
    """``F.concat([conv(x) for conv in convs], axis=-1)`` for causal
    :class:`Conv1d` layers, computed as one :func:`F.conv_bank` node."""
    if any(conv.padding != "causal" for conv in convs):
        raise ValueError("conv_bank runs causal convolutions only")
    biases = [conv.bias for conv in convs]
    return F.conv_bank(x, [conv.weight for conv in convs],
                       None if biases[0] is None else biases)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.normal((num_embeddings, dim), rng, std=0.05),
                                name="embedding.weight")

    def forward(self, ids: np.ndarray) -> Tensor:
        """Compute the layer output (see class docstring)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        flat = F.gather_rows(self.weight, ids.reshape(-1))
        return flat.reshape(ids.shape + (self.dim,))


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gain = Parameter(init.ones((dim,)), name="layernorm.gain")
        self.shift = Parameter(init.zeros((dim,)), name="layernorm.shift")

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        mean = x.mean(axis=-1, keepdims=True)
        centred = x - mean
        var = (centred * centred).mean(axis=-1, keepdims=True)
        normed = centred / F.sqrt(var + self.eps)
        return normed * self.gain + self.shift


class Dropout(Module):
    """Inverted dropout; no-op in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        return F.dropout(x, self.rate, self._rng, training=self.training)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        for layer in self.layers:
            x = layer(x)
        return x


class ReLU(Module):
    """ReLU as a module (for :class:`Sequential`)."""

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        return F.relu(x)


class Tanh(Module):
    """Tanh as a module."""

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        return F.tanh(x)


class Sigmoid(Module):
    """Sigmoid as a module."""

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        return F.sigmoid(x)


class GRUCell(Module):
    """Minimal gated recurrent unit cell.

    Processes a single timestep: ``h' = GRU(x, h)`` with ``x`` of shape
    ``(B, in_dim)`` and ``h`` of shape ``(B, hidden_dim)``.
    """

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.w_z = Linear(in_dim + hidden_dim, hidden_dim, rng)
        self.w_r = Linear(in_dim + hidden_dim, hidden_dim, rng)
        self.w_h = Linear(in_dim + hidden_dim, hidden_dim, rng)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """Compute the layer output (see class docstring)."""
        xh = F.concat([x, h], axis=-1)
        z = F.sigmoid(self.w_z(xh))
        r = F.sigmoid(self.w_r(xh))
        candidate = F.tanh(self.w_h(F.concat([x, r * h], axis=-1)))
        return (1.0 - z) * h + z * candidate

    def initial_state(self, batch: int) -> Tensor:
        """Zero hidden state for a batch."""
        return Tensor(np.zeros((batch, self.hidden_dim)))


class LSTMCell(Module):
    """Minimal LSTM cell (used by GeniePath's depth gating).

    Processes a single step: ``(h', c') = LSTM(x, (h, c))``.
    """

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.w_i = Linear(in_dim + hidden_dim, hidden_dim, rng)
        self.w_f = Linear(in_dim + hidden_dim, hidden_dim, rng)
        self.w_o = Linear(in_dim + hidden_dim, hidden_dim, rng)
        self.w_c = Linear(in_dim + hidden_dim, hidden_dim, rng)

    def forward(self, x: Tensor, state: tuple) -> tuple:
        """Compute the layer output (see class docstring)."""
        h, c = state
        xh = F.concat([x, h], axis=-1)
        i = F.sigmoid(self.w_i(xh))
        f = F.sigmoid(self.w_f(xh) + 1.0)  # forget-gate bias toward remembering
        o = F.sigmoid(self.w_o(xh))
        g = F.tanh(self.w_c(xh))
        c_next = f * c + i * g
        h_next = o * F.tanh(c_next)
        return h_next, c_next

    def initial_state(self, batch: int) -> tuple:
        """Zero ``(h, c)`` state for a batch."""
        zeros = np.zeros((batch, self.hidden_dim))
        return Tensor(zeros.copy()), Tensor(zeros.copy())
