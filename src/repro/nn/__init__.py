"""From-scratch numpy autograd / neural-network substrate.

The paper's models were implemented on Keras + AGL; neither is available
in this offline environment, so ``repro.nn`` provides the full stack —
reverse-mode autograd (:mod:`repro.nn.tensor`), differentiable ops
(:mod:`repro.nn.functional`), layers (:mod:`repro.nn.layers`),
optimizers (:mod:`repro.nn.optim`) and the graph-plan execution engine
(:mod:`repro.nn.engine`: compiled-plan replay; its kernels, one forward
each, by family in :mod:`repro.nn.kernels`) — that Gaia and every
baseline in this repository are built on.
"""

from . import engine
from . import functional
from . import init
from .layers import (
    Conv1d,
    Dropout,
    Embedding,
    GRUCell,
    LSTMCell,
    LayerNorm,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .module import Module, Parameter
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad

__all__ = [
    "engine",
    "functional",
    "init",
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Parameter",
    "Linear",
    "Conv1d",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "GRUCell",
    "LSTMCell",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
]
