"""Temporal convolution kernels: ``conv1d`` (im2col + GEMM, width-1
specialised) and the fused multi-scale bank ``multi_conv1d`` (TEL's
capture/denoise groups as one block GEMM, what
:func:`repro.nn.functional.conv_bank` records).

Neither saves anything: the im2col columns are a ``width``-fold copy of
the input, which the arena cannot plan, so each VJP re-lays them from
``arrays[0]`` with the forward's own call — the same columns, so the
same gradient bits — at the cost of one contiguous copy per backward.
Width 1 needs no columns at all: the input's ``(B * T, C)`` view is the
GEMM operand.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .registry import register_kernel


def _im2col(x: np.ndarray, width: int) -> np.ndarray:
    """Extract sliding windows: ``(B, T, C) -> (B, T - w + 1, w, C)``."""
    b, t, c = x.shape
    out_t = t - width + 1
    strides = (x.strides[0], x.strides[1], x.strides[1], x.strides[2])
    return np.lib.stride_tricks.as_strided(
        x, shape=(b, out_t, width, c), strides=strides, writeable=False
    )


def _padded_cols(x: np.ndarray, width: int, left: int,
                 right: int) -> np.ndarray:
    """Zero-pad ``x`` along time and lay its width-``width`` windows out
    contiguously: ``(B, T, C) -> (B, T + left + right - w + 1, w * C)``."""
    b, t, c = x.shape
    # Manual zero-pad: np.pad's generic machinery is measurably slower.
    xp = np.zeros((b, t + left + right, c), dtype=x.dtype)
    xp[:, left:left + t, :] = x
    cols = _im2col(xp, width)
    return np.ascontiguousarray(cols).reshape(b, cols.shape[1], width * c)


def _gemm_rows(rows: np.ndarray, w2: np.ndarray, shape: tuple,
               out) -> np.ndarray:
    """``(rows @ w2).reshape(shape)`` as one 2-D GEMM, landed in the
    3-D ``out`` when one is given."""
    if out is None:
        return np.matmul(rows, w2).reshape(shape)
    np.matmul(rows, w2, out=out.reshape(rows.shape[0], -1))
    return out


def _fw_conv1d(meta, arrays, out=None):
    x, w = arrays[0], arrays[1]
    width, c_in, c_out = w.shape
    b, t, _ = x.shape
    if width == 1:
        # Pointwise conv == per-timestamp linear map: one big GEMM, no
        # padding, no window extraction.
        out = _gemm_rows(x.reshape(b * t, c_in), w[0], (b, t, c_out), out)
    else:
        cols2 = _padded_cols(x, width, meta["left"], meta["right"])
        out = np.matmul(cols2, w.reshape(width * c_in, c_out), out=out)
    if len(arrays) == 3:
        out += arrays[2]
    return out, None


def _conv_input_grad(grad: np.ndarray, w: np.ndarray, t: int,
                     left: int) -> np.ndarray:
    """Gradient w.r.t. the conv input, as a flipped correlation GEMM.

    ``gx[m] = sum_j grad[m - j] @ w[j].T`` is itself a width-``w``
    convolution of the zero-padded output gradient with the kernel
    flipped along time and transposed — one im2col + one GEMM instead of
    a per-offset strided accumulation loop (~3x faster at this repo's
    shapes).
    """
    width, c_in, c_out = w.shape
    b, out_t, _ = grad.shape
    gcols = _padded_cols(grad, width, width - 1, width - 1)
    gcols = gcols.reshape(b * (out_t + width - 1), width * c_out)
    w_flip = w[::-1].transpose(0, 2, 1).reshape(width * c_out, c_in)
    gx_full = (gcols @ w_flip).reshape(b, out_t + width - 1, c_in)
    return gx_full[:, left:left + t, :]


def _bw_conv1d(meta, grad, arrays, out, saved):
    x, w = arrays[0], arrays[1]
    width, c_in, c_out = w.shape
    b, t, _ = x.shape
    if width == 1:
        g2 = grad.reshape(b * t, c_out)
        gw = (x.reshape(b * t, c_in).T @ g2).reshape(1, c_in, c_out)
        gx = (g2 @ w[0].T).reshape(b, t, c_in)
        if len(arrays) == 3:
            return gx, gw, grad.sum(axis=(0, 1))
        return gx, gw
    out_t = grad.shape[1]
    cols2 = _padded_cols(x, width, meta["left"], meta["right"])
    k = width * c_in
    # GEMM instead of einsum, in the (small, huge-K) transposed
    # orientation BLAS handles best; the transpose copy is k x c_out.
    gw = (grad.reshape(b * out_t, c_out).T @ cols2.reshape(b * out_t, k))
    gw = np.ascontiguousarray(gw.T).reshape(width, c_in, c_out)
    gx = _conv_input_grad(grad, w, t, meta["left"])
    if len(arrays) == 3:
        return gx, gw, grad.sum(axis=(0, 1))
    return gx, gw


def _block_weight(ws: Sequence[np.ndarray], wmax: int, c_in: int) -> np.ndarray:
    """Stack causal kernels of mixed widths into one dense block weight.

    A width-``w`` kernel occupies the *last* ``w`` window offsets of the
    shared width-``wmax`` im2col (causal right-alignment); everything
    else stays zero, so one GEMM against the block computes every scale
    at once.
    """
    total = sum(w.shape[2] for w in ws)
    block = np.zeros((wmax, c_in, total), dtype=ws[0].dtype)
    col = 0
    for w in ws:
        width, _, c_out = w.shape
        block[wmax - width:, :, col:col + c_out] = w
        col += c_out
    return block.reshape(wmax * c_in, total)


def _bank_operands(arrays: Sequence[np.ndarray], n: int):
    """The GEMM operands of a causal bank: ``(B * T, wmax * C)`` column
    rows of the input and the ``(wmax * C, total)`` block weight.

    At ``wmax == 1`` (ITA-GCN's s/d-term pair) the rows are the input's
    own ``(B * T, C)`` view: the same values the zero-pad + im2col copy
    would hold, so the same GEMM bits, with neither copy made.
    """
    x, ws = arrays[0], arrays[1:1 + n]
    wmax = max(w.shape[0] for w in ws)
    b, t, c_in = x.shape
    if wmax == 1:
        rows = x.reshape(b * t, c_in)
    else:
        rows = _padded_cols(x, wmax, wmax - 1, 0).reshape(b * t, wmax * c_in)
    return rows, _block_weight(ws, wmax, c_in)


def _fw_multi_conv1d(meta, arrays, out=None):
    """Fused multi-scale causal conv bank over one shared input.

    Replaces K separate ``conv1d`` ops (skinny GEMMs + K pad/im2col
    passes, e.g. TEL's capture/denoise groups) with one im2col and one
    wide GEMM; outputs are laid out exactly as the channel-concat of the
    per-scale convs.
    """
    n = meta["num_scales"]
    b, t, _ = arrays[0].shape
    rows, block = _bank_operands(arrays, n)
    out = _gemm_rows(rows, block, (b, t, block.shape[1]), out)
    if meta["bias"]:
        out += np.concatenate(arrays[1 + n:])
    return out, None


def _bw_multi_conv1d(meta, grad, arrays, out, saved):
    n = meta["num_scales"]
    ws = arrays[1:1 + n]
    b, t, c_in = arrays[0].shape
    rows, block = _bank_operands(arrays, n)
    total = grad.shape[2]
    g2 = grad.reshape(b * t, total)
    g_block = np.ascontiguousarray((g2.T @ rows).T).reshape(-1, c_in, total)
    wmax = g_block.shape[0]
    grads = [None] * len(arrays)
    col = 0
    for i, w in enumerate(ws):
        width, _, c_out = w.shape
        # Rows outside a scale's block are gradients of structural
        # zeros, not of parameters — dropped by construction.
        grads[1 + i] = np.ascontiguousarray(
            g_block[wmax - width:, :, col:col + c_out]
        )
        col += c_out
    grads[0] = _conv_input_grad(
        grad, block.reshape(wmax, c_in, total), t, wmax - 1
    )
    if meta["bias"]:
        g_bias = g2.sum(axis=0)
        col = 0
        for i, w in enumerate(ws):
            c_out = w.shape[2]
            grads[1 + n + i] = g_bias[col:col + c_out]
            col += c_out
    return tuple(grads)


register_kernel("conv1d", _fw_conv1d, _bw_conv1d,
                arena=True, vjp_uses=("inputs",))
register_kernel("multi_conv1d", _fw_multi_conv1d, _bw_multi_conv1d,
                arena=True, vjp_uses=("inputs",))
