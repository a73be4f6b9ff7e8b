"""Oracles for the engine's kernels: slower, textbook bodies of the same
math, and a context manager that runs the engine on them.

``repro.nn`` has one kernel per op.  Where that kernel is an
optimisation — a GEMM conv backward instead of ``einsum``, a
``bincount`` scatter instead of ``np.add.at``, an in-place masked
softmax, a folded weight gradient, a row-dot operand gradient, or a
fused op that stands for a composition (``linear``, ``multi_conv1d``,
``scaled_masked_softmax``) — :data:`ORACLES` holds an independent body
of the same math.  ``tests/test_kernels.py`` checks every kernel against
its oracle to 1e-12 (column (c) of the kernel contract), and
:func:`use_oracles` swaps the registry entries for their oracles, so a
whole training trajectory can be compared with the optimised one.
:data:`UNBLOCKED` keeps the conv kernels as they were before their
columns were blocked, the bodies the blocked kernels must match bitwise.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.nn import engine
from repro.nn.kernels.conv import _im2col
from repro.nn.kernels.elementwise import _denom_floor
from repro.nn.kernels.registry import OpKernel
from repro.nn.kernels.softmax import _mask_like
from repro.nn.tensor import unbroadcast


# ----------------------------------------------------------------------
# convolution: zero-pad + im2col with saved columns, einsum backward
# ----------------------------------------------------------------------
def _fw_conv1d(meta, arrays, out=None):
    x, w = arrays[0], arrays[1]
    width, c_in, c_out = w.shape
    left, right = meta["left"], meta["right"]
    b = x.shape[0]
    xp = np.pad(x, ((0, 0), (left, right), (0, 0)))
    cols = _im2col(xp, width)
    w2 = w.reshape(width * c_in, c_out)
    out_t = cols.shape[1]
    cols2 = cols.reshape(b, out_t, width * c_in)
    result = cols2 @ w2
    if len(arrays) == 3:
        result = result + arrays[2]
    return result, np.ascontiguousarray(cols2)


def _bw_conv1d(meta, grad, arrays, out, saved):
    x, w = arrays[0], arrays[1]
    width, c_in, c_out = w.shape
    left = meta["left"]
    b, t, _ = x.shape
    out_t = grad.shape[1]
    w2 = w.reshape(width * c_in, c_out)
    cols2 = saved
    gw = np.einsum("btk,bto->ko", cols2, grad).reshape(width, c_in, c_out)
    gcols = grad @ w2.T
    gcols = gcols.reshape(b, out_t, width, c_in)
    gx_padded = np.zeros((b, t + left + meta["right"], c_in), dtype=grad.dtype)
    for offset in range(width):
        gx_padded[:, offset:offset + out_t, :] += gcols[:, :, offset, :]
    gx = gx_padded[:, left:left + t, :]
    if len(arrays) == 3:
        return gx, gw, grad.sum(axis=(0, 1))
    return gx, gw


def _bank_parts(meta, arrays):
    """``(conv meta, conv arrays)`` of each causal kernel of a bank."""
    n = meta["num_scales"]
    x, ws = arrays[0], arrays[1:1 + n]
    biases = arrays[1 + n:] if meta["bias"] else [None] * n
    return [({"left": w.shape[0] - 1, "right": 0},
             (x, w) if b is None else (x, w, b))
            for w, b in zip(ws, biases)]


def _fw_multi_conv1d(meta, arrays, out=None):
    """K causal ``conv1d`` oracles, then the channel concat."""
    results = [_fw_conv1d(m, a) for m, a in _bank_parts(meta, arrays)]
    return (np.concatenate([r[0] for r in results], axis=-1),
            tuple(r[1] for r in results))


def _bw_multi_conv1d(meta, grad, arrays, out, saved):
    n = meta["num_scales"]
    parts = _bank_parts(meta, arrays)
    splits = np.cumsum([a[1].shape[2] for _, a in parts])[:-1]
    grads = [None] * len(arrays)
    gx = None
    for i, ((m, a), g, cols) in enumerate(
            zip(parts, np.split(grad, splits, axis=-1), saved)):
        pgrads = _bw_conv1d(m, g, a, None, cols)
        gx = pgrads[0] if gx is None else gx + pgrads[0]
        grads[1 + i] = pgrads[1]
        if meta["bias"]:
            grads[1 + n + i] = pgrads[2]
    grads[0] = gx
    return tuple(grads)


# ----------------------------------------------------------------------
# convolution, unblocked: the production bodies before blocked im2col
# ----------------------------------------------------------------------
def _unblocked_cols(x, width, left, right):
    """The whole batch's zero-padded columns at once:
    ``(B, T, C) -> (B, T + left + right - w + 1, w * C)``."""
    b, t, c = x.shape
    xp = np.zeros((b, t + left + right, c), dtype=x.dtype)
    xp[:, left:left + t, :] = x
    cols = _im2col(xp, width)
    return np.ascontiguousarray(cols).reshape(b, cols.shape[1], width * c)


def _unblocked_input_grad(grad, w, t, left):
    """The flipped-correlation input gradient over ``grad`` padded by
    ``width - 1`` on both sides; the ``width - 1`` extra rows per
    sample are computed, then sliced away."""
    width, c_in, c_out = w.shape
    b, out_t, _ = grad.shape
    gcols = _unblocked_cols(grad, width, width - 1, width - 1)
    gcols = gcols.reshape(b * (out_t + width - 1), width * c_out)
    w_flip = w[::-1].transpose(0, 2, 1).reshape(width * c_out, c_in)
    gx_full = (gcols @ w_flip).reshape(b, out_t + width - 1, c_in)
    return gx_full[:, left:left + t, :]


def _fw_conv1d_unblocked(meta, arrays, out=None):
    x, w = arrays[0], arrays[1]
    width, c_in, c_out = w.shape
    b, t, _ = x.shape
    if width == 1:
        out = np.matmul(x.reshape(b * t, c_in), w[0]).reshape(b, t, c_out)
    else:
        cols2 = _unblocked_cols(x, width, meta["left"], meta["right"])
        out = np.matmul(cols2, w.reshape(width * c_in, c_out))
    if len(arrays) == 3:
        out += arrays[2]
    return out, None


def _bw_conv1d_unblocked(meta, grad, arrays, out, saved):
    x, w = arrays[0], arrays[1]
    width, c_in, c_out = w.shape
    b, t, _ = x.shape
    if width == 1:
        g2 = grad.reshape(b * t, c_out)
        gw = (x.reshape(b * t, c_in).T @ g2).reshape(1, c_in, c_out)
        gx = (g2 @ w[0].T).reshape(b, t, c_in)
    else:
        out_t = grad.shape[1]
        cols2 = _unblocked_cols(x, width, meta["left"], meta["right"])
        gw = (grad.reshape(b * out_t, c_out).T
              @ cols2.reshape(b * out_t, width * c_in))
        gw = np.ascontiguousarray(gw.T).reshape(width, c_in, c_out)
        gx = _unblocked_input_grad(grad, w, t, meta["left"])
    if len(arrays) == 3:
        return gx, gw, grad.sum(axis=(0, 1))
    return gx, gw


def _unblocked_bank(arrays, n):
    """``(rows, block)``: the bank's ``(B * T, wmax * C)`` column rows
    (the input's own view at ``wmax == 1``) and its block weight."""
    x, ws = arrays[0], arrays[1:1 + n]
    wmax = max(w.shape[0] for w in ws)
    b, t, c_in = x.shape
    if wmax == 1:
        rows = x.reshape(b * t, c_in)
    else:
        rows = _unblocked_cols(x, wmax, wmax - 1, 0).reshape(
            b * t, wmax * c_in)
    block = np.zeros((wmax, c_in, sum(w.shape[2] for w in ws)),
                     dtype=ws[0].dtype)
    col = 0
    for w in ws:
        block[wmax - w.shape[0]:, :, col:col + w.shape[2]] = w
        col += w.shape[2]
    return rows, block


def _fw_multi_conv1d_unblocked(meta, arrays, out=None):
    n = meta["num_scales"]
    b, t, _ = arrays[0].shape
    rows, block = _unblocked_bank(arrays, n)
    wmax, c_in, total = block.shape
    out = np.matmul(rows, block.reshape(wmax * c_in, total)).reshape(
        b, t, total)
    if meta["bias"]:
        out += np.concatenate(arrays[1 + n:])
    return out, None


def _bw_multi_conv1d_unblocked(meta, grad, arrays, out, saved):
    n = meta["num_scales"]
    b, t, c_in = arrays[0].shape
    rows, block = _unblocked_bank(arrays, n)
    wmax, _, total = block.shape
    g2 = grad.reshape(b * t, total)
    g_block = np.ascontiguousarray((g2.T @ rows).T).reshape(-1, c_in, total)
    grads = [None] * len(arrays)
    col = 0
    for i, w in enumerate(arrays[1:1 + n]):
        width, _, c_out = w.shape
        grads[1 + i] = np.ascontiguousarray(
            g_block[wmax - width:, :, col:col + c_out])
        col += c_out
    grads[0] = _unblocked_input_grad(grad, block, t, wmax - 1)
    if meta["bias"]:
        g_bias = g2.sum(axis=0)
        col = 0
        for i, w in enumerate(arrays[1:1 + n]):
            grads[1 + n + i] = g_bias[col:col + w.shape[2]]
            col += w.shape[2]
    return tuple(grads)


#: The conv kernels as they were before blocked im2col: same math, same
#: GEMM operands, the whole batch's columns laid out at once.
UNBLOCKED = {
    "conv1d": OpKernel("conv1d", _fw_conv1d_unblocked,
                       _bw_conv1d_unblocked),
    "multi_conv1d": OpKernel("multi_conv1d", _fw_multi_conv1d_unblocked,
                             _bw_multi_conv1d_unblocked),
}


# ----------------------------------------------------------------------
# softmax: out-of-place, nan scores zeroed
# ----------------------------------------------------------------------
def _fw_masked_softmax(meta, arrays, out=None):
    (a,) = arrays
    mask, axis = _mask_like(meta, a), meta["axis"]
    scores = a + mask
    row_max = scores.max(axis=axis, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    ex = np.exp(scores - row_max)
    ex = np.where(np.isfinite(scores), ex, 0.0)
    denom = ex.sum(axis=axis, keepdims=True)
    safe = np.maximum(denom, _denom_floor(a.dtype))
    return ex / safe, None


def _bw_masked_softmax(meta, grad, arrays, out, saved):
    axis = meta["axis"]
    dot = (grad * out).sum(axis=axis, keepdims=True)
    return (out * (grad - dot),)


def _fw_scaled_masked_softmax(meta, arrays, out=None):
    """``mul`` by the scale, then the ``masked_softmax`` oracle."""
    (a,) = arrays
    return _fw_masked_softmax(meta, (a * meta["scale"],))


def _bw_scaled_masked_softmax(meta, grad, arrays, out, saved):
    (g,) = _bw_masked_softmax(meta, grad, arrays, out, saved)
    return (g * meta["scale"],)


# ----------------------------------------------------------------------
# scatters: np.add.at
# ----------------------------------------------------------------------
def _bw_add_at(meta, grad, arrays, out, saved):
    full = np.zeros(meta["in_shape"], dtype=np.asarray(grad).dtype)
    np.add.at(full, meta["index"], grad)
    return (full,)


def _fw_segment_sum(meta, arrays, out=None):
    (a,) = arrays
    result = np.zeros((meta["num_segments"],) + a.shape[1:], dtype=a.dtype)
    np.add.at(result, meta["ids"], a)
    return result, None


# ----------------------------------------------------------------------
# GEMM and products: the swapaxes pair, the unreduced product
# ----------------------------------------------------------------------
def _fw_matmul(meta, arrays, out=None):
    return arrays[0] @ arrays[1], None


def _bw_matmul(meta, grad, arrays, out, saved):
    """Gradients of ``a @ b`` as the textbook ``swapaxes`` pair: vector
    operands promoted to matrices, no folded weight GEMM."""
    a, b = arrays
    a2 = a[None, :] if a.ndim == 1 else a
    b2 = b[:, None] if b.ndim == 1 else b
    g = np.asarray(grad)
    if b.ndim == 1:
        g = g[..., None]
    if a.ndim == 1:
        g = g[..., None, :]
    ga = g @ np.swapaxes(b2, -1, -2)
    gb = np.swapaxes(a2, -1, -2) @ g
    return (unbroadcast(ga, a2.shape).reshape(a.shape),
            unbroadcast(gb, b2.shape).reshape(b.shape))


def _fw_linear(meta, arrays, out=None):
    """``matmul``, then ``add``."""
    x, w, b = arrays
    return (x @ w) + b, None


def _bw_linear(meta, grad, arrays, out, saved):
    gx, gw = _bw_matmul(meta, grad, arrays[:2], None, None)
    return gx, gw, grad


def _bw_mul(meta, grad, arrays, out, saved):
    """``grad * other``, left for the caller to reduce (no row-dot)."""
    a, b = arrays
    needs = meta["needs"] if meta else (True, True)
    return (grad * b if needs[0] else None, grad * a if needs[1] else None)


def _oracle(name, forward=None, vjp=None) -> OpKernel:
    kernel = engine.KERNELS[name]
    return OpKernel(name, forward or kernel.forward, vjp or kernel.vjp)


#: Op name -> the oracle kernel it is checked against.
ORACLES = {
    "conv1d": _oracle("conv1d", _fw_conv1d, _bw_conv1d),
    "multi_conv1d": _oracle("multi_conv1d", _fw_multi_conv1d,
                            _bw_multi_conv1d),
    "masked_softmax": _oracle("masked_softmax", _fw_masked_softmax,
                              _bw_masked_softmax),
    "scaled_masked_softmax": _oracle("scaled_masked_softmax",
                                     _fw_scaled_masked_softmax,
                                     _bw_scaled_masked_softmax),
    "getitem": _oracle("getitem", vjp=_bw_add_at),
    "gather_rows": _oracle("gather_rows", vjp=_bw_add_at),
    "segment_sum": _oracle("segment_sum", forward=_fw_segment_sum),
    "matmul": _oracle("matmul", _fw_matmul, _bw_matmul),
    "linear": _oracle("linear", _fw_linear, _bw_linear),
    "mul": _oracle("mul", vjp=_bw_mul),
}


@contextmanager
def use_oracles():
    """Run the engine on :data:`ORACLES` for the block.

    Swaps the registry entries and restores them on exit.  A forward
    and its backward must both run inside the block: an oracle's
    ``saved`` is not the production kernel's.
    """
    registry = engine.KERNELS
    production = {name: registry[name] for name in ORACLES}
    registry.update(ORACLES)
    try:
        yield
    finally:
        registry.update(production)
