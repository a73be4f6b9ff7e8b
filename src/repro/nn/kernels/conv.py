"""Temporal convolution kernels: ``conv1d`` (im2col + GEMM, width-1
specialised) and the fused multi-scale bank ``multi_conv1d`` (TEL's
capture/denoise groups as one block GEMM, what
:func:`repro.nn.functional.conv_bank` records).

**Blocked columns.** The im2col columns of a width-``w`` convolution
are a ``w``-fold copy of its input (8x for TEL's widest bank).  Laid out
for the whole batch at once they are written to memory and then read
back by the GEMM.  Once they outgrow the cache the forward is bound by
that memory traffic, not by FLOPs.  :func:`_conv_gemm` therefore lays
columns of more than :data:`_WHOLE_BYTES` out one block of batch rows
at a time, :data:`_BLOCK_BYTES` of columns per block, and GEMMs each
block straight into its slice of the output (the arena buffer, when
one is given).  This is the cache-blocking of the lowered operand in
Goto & van de Geijn (TOMS 2008) and MEC (Cho & Brand, ICML 2017).  The
forward of both kernels and the input gradient
(:func:`_conv_input_grad`, a convolution of the output gradient) are
blocked.  A training batch is cut into blocks; a serving union of up
to about 170 rows (TEL's width-4 bank at 8 channels) is laid out whole.
Every output row is the same dot product over the
same column row, in a GEMM with fewer rows, so the bits are the
unblocked ones only where BLAS rounds a row independently of its
GEMM's row count.  On OpenBLAS that holds at aligned shapes: an output
width that is a whole number of SIMD vectors (8 doubles) and more than
one row per GEMM, as at every conv of the repo's models.  At other
channel counts (``GaiaConfig(channels=12)``) or one-step series a
blocked row may move by an ulp; ``tests/test_kernels.py`` section (e)
holds those to 1e-12.

**Weight gradients lay out all the columns.** A weight gradient is a
reduction *over* the rows, ``cols.T @ grad``.  Splitting the rows into
blocks would split that reduction into partial sums, which changes the
bits, so it stays one GEMM over the full columns.

Neither kernel saves anything: the columns are a ``width``-fold copy of
the input, which the arena cannot plan, so each VJP re-lays them from
``arrays[0]``.  Width 1 needs no columns at all: the input's
``(B * T, C)`` view is the GEMM operand.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .registry import register_kernel


#: Bytes of im2col columns laid out per block of batch rows.  A 1000-shop
#: default-Gaia epoch on a 2-vCPU x86 box (BLAS on one thread) took
#: 324 / 305 / 282 / 304 / 317 ms at 96 / 192 / 384 / 768 / 1536 KiB,
#: and 345 ms unblocked.
_BLOCK_BYTES = 384 * 1024

#: Columns of at most this many bytes are laid out whole.  Columns, the
#: padded rows they are cut from and the output then stay in a core's
#: L2, so blocking saves no memory traffic and only adds calls.  At the
#: serve shapes (T = 24, C = 8, TEL's width-4 bank) 384 KiB blocks took
#: 0.97-1.10x the time of one block from 0.56 to 0.94 MiB of columns,
#: and 0.69-0.75x from 1.03 MiB on (2-vCPU x86, 2 MiB L2 per core).
_WHOLE_BYTES = 1024 * 1024


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


def _cols_gemm(x: np.ndarray, w2: np.ndarray, width: int, left: int,
               right: int, out: np.ndarray, per_sample: bool) -> None:
    """``_padded_cols(x, width, left, right) @ w2`` for one block, written
    into ``out``.  ``per_sample`` keeps ``conv1d``'s stacked
    ``(b, T', K) @ (K, N)`` product (one GEMM per sample); otherwise the
    block is one 2-D GEMM over its rows."""
    cols = _padded_cols(x, width, left, right)
    if per_sample:
        np.matmul(cols, w2, out=out)
    else:
        b, out_t, k = cols.shape
        _gemm_rows(cols.reshape(b * out_t, k), w2, out.shape, out)


def _conv_gemm(x: np.ndarray, w2: np.ndarray, width: int, left: int,
               right: int, out=None, per_sample: bool = False) -> np.ndarray:
    """``_padded_cols(x, width, left, right) @ w2``, one block of batch
    rows at a time: ``(B, T, C) -> (B, T + left + right - w + 1, N)``.

    Columns of at most :data:`_WHOLE_BYTES` are one block; larger ones
    are cut into blocks of at most :data:`_BLOCK_BYTES` (at least one
    batch row).  Each block's columns are laid out and GEMMed into their
    slice of ``out``, then freed.  Width 1 unpadded needs no columns:
    the input's own ``(B * T, C)`` view is the operand, the same values
    as the copy.
    """
    b, t, c = x.shape
    if width == 1 and left == right == 0:
        return _gemm_rows(x.reshape(b * t, c), w2, (b, t, w2.shape[1]), out)
    out_t = t + left + right - width + 1
    row_bytes = out_t * width * c * x.itemsize
    rows = b if b * row_bytes <= _WHOLE_BYTES else max(
        1, _BLOCK_BYTES // row_bytes)
    if out is None:
        out = np.empty((b, out_t, w2.shape[1]),
                       dtype=np.result_type(x.dtype, w2.dtype))
    for start in range(0, b, rows):
        _cols_gemm(x[start:start + rows], w2, width, left, right,
                   out[start:start + rows], per_sample)
    return out


def _fw_conv1d(meta, arrays, out=None):
    x, w = arrays[0], arrays[1]
    width, c_in, c_out = w.shape
    # Width 1 is a per-timestamp linear map: one big GEMM, no columns.
    out = _conv_gemm(x, w.reshape(width * c_in, c_out), width,
                     meta["left"], meta["right"], out, per_sample=True)
    if len(arrays) == 3:
        out += arrays[2]
    return out, None


def _conv_input_grad(grad: np.ndarray, w: np.ndarray, t: int,
                     left: int) -> np.ndarray:
    """Gradient w.r.t. the conv input, as a flipped correlation GEMM.

    ``gx[m] = sum_j grad[m - j] @ w[j].T`` is itself a width-``w``
    convolution of the zero-padded output gradient with the kernel
    flipped along time and transposed — blocked im2col + GEMM instead
    of a per-offset strided accumulation loop (~3x faster at this
    repo's shapes).  ``grad`` is padded only by what the ``t`` input
    rows read: ``width - 1 - left`` on the left, ``t + left - out_t``
    on the right.
    """
    width, c_in, c_out = w.shape
    out_t = grad.shape[1]
    w_flip = w[::-1].transpose(0, 2, 1).reshape(width * c_out, c_in)
    return _conv_gemm(grad, w_flip, width, width - 1 - left,
                      t + left - out_t)


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
    del cols2  # the input gradient lays out its own blocks
    gw = np.ascontiguousarray(gw.T).reshape(width, c_in, c_out)
    gx = _conv_input_grad(grad, w, t, meta["left"])
    if len(arrays) == 3:
        return gx, gw, grad.sum(axis=(0, 1))
    return gx, gw


def _block_weight(ws: Sequence[np.ndarray], c_in: int) -> np.ndarray:
    """Stack causal kernels of mixed widths into one dense
    ``(wmax, c_in, total)`` block weight.

    A width-``w`` kernel occupies the *last* ``w`` window offsets of the
    shared width-``wmax`` im2col (causal right-alignment); everything
    else stays zero, so one GEMM against the block computes every scale
    at once.
    """
    wmax = max(w.shape[0] for w in ws)
    total = sum(w.shape[2] for w in ws)
    block = np.zeros((wmax, c_in, total), dtype=ws[0].dtype)
    col = 0
    for w in ws:
        width, _, c_out = w.shape
        block[wmax - width:, :, col:col + c_out] = w
        col += c_out
    return block


def _fw_multi_conv1d(meta, arrays, out=None):
    """Fused multi-scale causal conv bank over one shared input.

    Replaces K separate ``conv1d`` ops (skinny GEMMs + K pad/im2col
    passes, e.g. TEL's capture/denoise groups) with one blocked im2col
    and one wide GEMM per block; outputs are laid out exactly as the
    channel-concat of the per-scale convs.  At ``wmax == 1`` (ITA-GCN's
    s/d-term pair) the GEMM reads the input's own view.
    """
    n = meta["num_scales"]
    x = arrays[0]
    block = _block_weight(arrays[1:1 + n], x.shape[2])
    wmax, c_in, total = block.shape
    out = _conv_gemm(x, block.reshape(wmax * c_in, total), wmax, wmax - 1,
                     0, out)
    if meta["bias"]:
        out += np.concatenate(arrays[1 + n:])
    return out, None


def _bw_multi_conv1d(meta, grad, arrays, out, saved):
    n = meta["num_scales"]
    x, ws = arrays[0], arrays[1:1 + n]
    b, t, c_in = x.shape
    block = _block_weight(ws, c_in)
    wmax, _, total = block.shape
    if wmax == 1:
        rows = x.reshape(b * t, c_in)
    else:
        rows = _padded_cols(x, wmax, wmax - 1, 0).reshape(b * t, wmax * c_in)
    g2 = grad.reshape(b * t, total)
    g_block = np.ascontiguousarray((g2.T @ rows).T).reshape(-1, c_in, total)
    del rows  # the input gradient lays out its own blocks
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
    grads[0] = _conv_input_grad(grad, block, t, wmax - 1)
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
