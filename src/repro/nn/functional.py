"""Differentiable operations used by the Gaia model and the baselines.

Everything here consumes and produces :class:`repro.nn.tensor.Tensor`.
The graph-specific primitives (:func:`gather_rows`, :func:`segment_sum`,
:func:`segment_softmax`) are what let us express GNN message passing —
per-edge attention with a softmax over each destination node's incoming
edges — using only dense numpy kernels.

Primitives dispatch through the :mod:`repro.nn.engine` kernel registry
(see the design notes in :mod:`repro.nn.tensor`), so they take part in
planned replay automatically.  Each entry point records exactly the
kernel it names: the fused ones — :func:`linear`, :func:`conv_bank`,
:func:`scaled_masked_softmax` — are one node each because a layer calls
them, not because a pattern of smaller ops was rewritten, so every
forward of a model (recorded, ``no_grad``, serving) runs the same
kernels.  Composite ops whose recorded constants depend on tensor
*values* (:func:`dropout` masks, :func:`huber_loss`'s branch mask) flag
the active trace via :func:`repro.nn.engine.mark_dynamic`, which makes
compiled losses fall back to eager execution instead of replaying stale
constants.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import engine
from .kernels.elementwise import _denom_floor
from .tensor import Tensor, _apply_op, as_tensor

__all__ = [
    "exp",
    "log",
    "sqrt",
    "absolute",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "masked_softmax",
    "scaled_masked_softmax",
    "linear",
    "concat",
    "stack",
    "pad_time",
    "conv1d",
    "conv_bank",
    "gather_rows",
    "segment_sum",
    "segment_softmax",
    "dropout",
    "glu",
    "causal_mask",
    "log_sparse_mask",
    "mse_loss",
    "mae_loss",
    "huber_loss",
]


# ----------------------------------------------------------------------
# pointwise
# ----------------------------------------------------------------------
def exp(a: Tensor) -> Tensor:
    """Elementwise exponential."""
    return _apply_op("exp", (a,))


def log(a: Tensor) -> Tensor:
    """Elementwise natural logarithm, guarded against non-positive input.

    Inputs are clamped into ``[1e-12, inf)`` before the log, so zeros
    and negatives yield a large-negative finite value (and a finite
    gradient) instead of silently emitting ``nan`` / ``-inf``.
    """
    return _apply_op("log", (a,))


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root."""
    return _apply_op("sqrt", (a,))


def absolute(a: Tensor) -> Tensor:
    """Elementwise absolute value (subgradient 0 at the kink)."""
    return _apply_op("abs", (a,))


def relu(a: Tensor) -> Tensor:
    """Rectified linear unit."""
    return _apply_op("relu", (a,))


def leaky_relu(a: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU (used by GAT-style attention scores)."""
    return _apply_op("leaky_relu", (a,),
                     {"negative_slope": float(negative_slope)})


def sigmoid(a: Tensor) -> Tensor:
    """Numerically-stable logistic sigmoid."""
    return _apply_op("sigmoid", (a,))


def tanh(a: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    return _apply_op("tanh", (a,))


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` as one fused node.

    With a bias this records the engine's ``linear`` kernel (one node,
    one VJP, the same bits as ``x @ weight + bias``); without a bias it
    is a plain matmul.
    """
    if bias is None:
        return _apply_op("matmul", (x, weight))
    return _apply_op("linear", (x, weight, bias))


# ----------------------------------------------------------------------
# softmax family
# ----------------------------------------------------------------------
def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``.

    The axis max is subtracted before ``exp`` so large logits (e.g. from
    fused pre-activations) cannot overflow, and all-``-inf`` rows are
    shifted by zero instead of producing ``nan``.
    """
    return _apply_op("softmax", (a,), {"axis": axis})


def masked_softmax(a: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax with an additive mask of ``0`` / ``-inf`` entries.

    ``mask`` is a constant (non-differentiable) array broadcastable to
    ``a``; positions with ``-inf`` receive exactly zero probability.
    Rows that are fully masked produce a uniform zero row instead of NaN.
    """
    return _apply_op("masked_softmax", (a,), {"mask": mask, "axis": axis})


def scaled_masked_softmax(a: Tensor, scale: float, mask: np.ndarray,
                          axis: int = -1) -> Tensor:
    """``masked_softmax(a * scale, mask)`` as one node (attention logits).

    The same bits as the composition, without recording the scaled
    scores: CAU's ``softmax(Q K^T / sqrt(C) + M)``.
    """
    return _apply_op("scaled_masked_softmax", (a,),
                     {"mask": mask, "axis": axis, "scale": float(scale)})


def causal_mask(size: int) -> np.ndarray:
    """Additive mask filtering rightward (future) attention.

    Entry ``(i, j)`` is ``0`` when ``j <= i`` and ``-inf`` otherwise,
    matching the matrix ``M`` in the paper's CAU definition.
    """
    mask = np.zeros((size, size), dtype=np.float64)
    mask[np.triu_indices(size, k=1)] = -np.inf
    return mask


def log_sparse_mask(size: int) -> np.ndarray:
    """Causal mask restricted to log-sparse offsets (LogTrans variant).

    Position ``i`` may attend to itself, to ``i - 1`` and to positions at
    exponentially-growing offsets ``i - 2^k``; all other entries are
    ``-inf``.
    """
    mask = np.full((size, size), -np.inf, dtype=np.float64)
    for i in range(size):
        mask[i, i] = 0.0
        offset = 1
        while i - offset >= 0:
            mask[i, i - offset] = 0.0
            offset *= 2
    return mask


# ----------------------------------------------------------------------
# shape / structure
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (the paper's ``||`` operator)."""
    tensors = tuple(as_tensor(t) for t in tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _apply_op("concat", tensors, {"axis": axis, "splits": splits})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = tuple(as_tensor(t) for t in tensors)
    return _apply_op("stack", tensors, {"axis": axis})


def pad_time(a: Tensor, left: int, right: int) -> Tensor:
    """Zero-pad the time axis of a ``(..., T, C)`` tensor."""
    if left == 0 and right == 0:
        return a
    return _apply_op(
        "pad_time", (a,),
        {"left": left, "right": right, "t": a.data.shape[-2]},
    )


# ----------------------------------------------------------------------
# convolution
# ----------------------------------------------------------------------
def conv1d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           padding: str = "causal") -> Tensor:
    """1-D convolution over the time axis of a ``(B, T, C_in)`` tensor.

    The paper writes kernels as ``L_{w x C; c}`` — ``c`` kernels each
    spanning ``w`` timestamps and all ``C`` input channels; that maps to
    ``weight`` of shape ``(w, C_in, C_out)``.

    Parameters
    ----------
    x:
        Input of shape ``(B, T, C_in)``.
    weight:
        Kernel of shape ``(w, C_in, C_out)``.
    bias:
        Optional ``(C_out,)`` bias.
    padding:
        ``"causal"`` pads ``w - 1`` zeros on the left so that output t
        only sees inputs ``<= t`` (no future leakage, matching the
        paper's rightward-attention filtering); ``"same"`` pads
        symmetrically.
    """
    if x.data.ndim != 3:
        raise ValueError(f"conv1d expects (B, T, C) input, got shape {x.data.shape}")
    width, c_in, c_out = weight.data.shape
    if x.data.shape[-1] != c_in:
        raise ValueError(
            f"conv1d channel mismatch: input has {x.data.shape[-1]}, kernel expects {c_in}"
        )
    if padding == "causal":
        left, right = width - 1, 0
    elif padding == "same":
        left = (width - 1) // 2
        right = width - 1 - left
    elif padding == "valid":
        left = right = 0
    else:
        raise ValueError(f"unknown padding mode {padding!r}")
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _apply_op("conv1d", inputs, {"left": left, "right": right})


def conv_bank(x: Tensor, weights: Sequence[Tensor],
              biases: Optional[Sequence[Tensor]] = None) -> Tensor:
    """Bank of causal convolutions sharing one input, as one GEMM.

    Computes the channel concatenation of ``conv1d(x, w_i, b_i,
    padding="causal")`` over the kernels, as one ``multi_conv1d`` node
    (one im2col + one block GEMM) — ~2-3x faster than K separate skinny
    convolutions.  Kernels may differ in width; a caller that needs the
    per-kernel outputs slices the channel axis.

    ``biases`` is ``None`` or one tensor per kernel.
    """
    weights = tuple(weights)
    biases = tuple(biases) if biases is not None else ()
    if biases and len(biases) != len(weights):
        raise ValueError("conv_bank takes one bias per kernel, or none")
    return _apply_op("multi_conv1d", (x, *weights, *biases),
                     {"num_scales": len(weights), "bias": bool(biases)})


# ----------------------------------------------------------------------
# graph primitives
# ----------------------------------------------------------------------
def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Select rows along axis 0 (``a[index]``); backward scatter-adds."""
    index = np.asarray(index, dtype=np.int64)
    return _apply_op("gather_rows", (a,),
                     {"index": index, "in_shape": a.data.shape})


def segment_sum(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``a`` into ``num_segments`` buckets.

    ``segment_ids`` assigns each leading-axis row of ``a`` to a bucket;
    the backward pass is a gather.  This is the aggregation primitive of
    every message-passing layer in the repository.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    return _apply_op("segment_sum", (a,),
                     {"ids": segment_ids, "num_segments": int(num_segments)})


def segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax of per-edge ``scores`` grouped by destination segment.

    Implements the paper's neighbor-attention normalisation
    ``alpha_{u,v} = exp g(u,v) / sum_{v'} exp g(u,v')`` where the sum runs
    over each destination node's incoming edges.  ``scores`` must be a
    1-D tensor with one entry per edge.

    The stability shift (per-segment max, constant w.r.t. autograd since
    softmax is shift-invariant) is recorded as a ``segment_max_gather``
    op so planned replay recomputes it from the *current* scores instead
    of freezing a trace-time constant.  A segment whose scores are all
    ``-inf`` gets weight 0 on every edge (its zero denominator is
    floored per dtype), not ``nan``.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    shift = _apply_op(
        "segment_max_gather", (scores,),
        {"ids": segment_ids, "num_segments": int(num_segments)},
    )
    shifted = scores - shift
    ex = exp(shifted)
    denom = segment_sum(ex, segment_ids, num_segments)
    denom_per_edge = gather_rows(denom, segment_ids)
    return ex / (denom_per_edge + _denom_floor(ex.data.dtype))


# ----------------------------------------------------------------------
# regularisation / gating
# ----------------------------------------------------------------------
def dropout(a: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or ``rate == 0``."""
    if not training or rate <= 0.0:
        return a
    # The mask is a fresh random constant every call: a replayed plan
    # would freeze it, so flag any active trace as dynamic.
    engine.mark_dynamic("dropout")
    keep = 1.0 - rate
    mask = (rng.random(a.data.shape) < keep) / keep
    return a * Tensor(mask)


def glu(a: Tensor, axis: int = -1) -> Tensor:
    """Gated linear unit: split in half along ``axis``, ``x * sigmoid(g)``.

    Used by the STGCN baseline's gated temporal convolutions.
    """
    size = a.data.shape[axis]
    if size % 2 != 0:
        raise ValueError(f"glu requires an even dimension, got {size}")
    half = size // 2
    index_a = [slice(None)] * a.data.ndim
    index_b = [slice(None)] * a.data.ndim
    index_a[axis] = slice(0, half)
    index_b[axis] = slice(half, size)
    return a[tuple(index_a)] * sigmoid(a[tuple(index_b)])


# ----------------------------------------------------------------------
# losses
# ----------------------------------------------------------------------
def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error — the paper's training objective (Eq. 10)."""
    diff = pred - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).mean()


def mae_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error."""
    diff = pred - Tensor(np.asarray(target, dtype=np.float64))
    return absolute(diff).mean()


def huber_loss(pred: Tensor, target: np.ndarray, delta: float = 1.0) -> Tensor:
    """Huber loss (quadratic near zero, linear in the tails)."""
    # The quadratic/linear branch mask is computed from current values;
    # a replayed plan would freeze it, so flag any active trace.
    engine.mark_dynamic("huber_loss branch mask")
    target_t = Tensor(np.asarray(target, dtype=np.float64))
    diff = pred - target_t
    abs_diff = absolute(diff)
    quad_mask = (abs_diff.data <= delta).astype(np.float64)
    quadratic = diff * diff * 0.5
    linear_part = abs_diff * delta - (0.5 * delta * delta)
    combined = quadratic * Tensor(quad_mask) + linear_part * Tensor(1.0 - quad_mask)
    return combined.mean()
