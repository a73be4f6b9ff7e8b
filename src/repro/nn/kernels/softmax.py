"""Softmax kernels: ``softmax``, the additive-mask ``masked_softmax``
and the scaled ``scaled_masked_softmax`` (CAU attention, what
:func:`repro.nn.functional.scaled_masked_softmax` records).  All three
normalise through :func:`_softmax_into`."""

from __future__ import annotations

import numpy as np

from .elementwise import _denom_floor
from .registry import register_kernel


def _mask_like(meta, a: np.ndarray) -> np.ndarray:
    """The recorded additive mask, cast to the working dtype.

    Masks are recorded float64, as the engine computes; for float64
    inputs this returns the recorded array itself.  Kernels follow their
    operands' dtype, so narrower scores get a cast computed once and
    memoised under a kernel-private meta key.
    """
    mask = meta["mask"]
    if mask.dtype == a.dtype:
        return mask
    cache = meta.get("_mask_cast")
    if cache is None or cache.dtype != a.dtype:
        cache = meta["_mask_cast"] = np.asarray(mask, dtype=a.dtype)
    return cache


def _softmax_into(scores: np.ndarray, axis, out) -> np.ndarray:
    """Stabilised softmax of ``scores`` along ``axis``, written to ``out``.

    ``out`` may be ``scores`` itself (the masked kernels normalise their
    own buffer in place) or ``None`` (allocate).  Masked entries are
    ``-inf`` after the shift and ``exp(-inf) == 0.0`` exactly, so no
    ``isfinite`` bookkeeping is needed (finite logits assumed; the
    oracle in ``tests/kernel_oracles.py`` also zeroes nan scores).
    """
    row_max = scores.max(axis=axis, keepdims=True)
    # Rows of -inf (fully suppressed logits) would otherwise turn into
    # nan via (-inf) - (-inf) and 0/0: shift those by 0, floor the sum.
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    out = np.subtract(scores, row_max, out=out)
    np.exp(out, out=out)
    denom = out.sum(axis=axis, keepdims=True)
    np.maximum(denom, _denom_floor(out.dtype), out=denom)
    return np.divide(out, denom, out=out)


def _fw_softmax(meta, arrays, out=None):
    return _softmax_into(arrays[0], meta["axis"], out), None


def _bw_softmax(meta, grad, arrays, out, saved):
    axis = meta["axis"]
    dot = (grad * out).sum(axis=axis, keepdims=True)
    return (out * (grad - dot),)


def _fw_masked_softmax(meta, arrays, out=None):
    (a,) = arrays
    scores = np.add(a, _mask_like(meta, a), out=out)  # only allocation
    return _softmax_into(scores, meta["axis"], scores), None


def _softmax_dot(grad: np.ndarray, out: np.ndarray, axis) -> np.ndarray:
    """``(grad * out).sum(axis, keepdims=True)`` without the product
    temporary — one einsum row-dot pass when reducing the last axis."""
    if axis in (-1, grad.ndim - 1) and grad.flags.c_contiguous \
            and out.flags.c_contiguous:
        n = grad.shape[-1]
        dot = np.einsum("ij,ij->i", grad.reshape(-1, n), out.reshape(-1, n))
        return dot.reshape(grad.shape[:-1] + (1,))
    return (grad * out).sum(axis=axis, keepdims=True)


def _bw_masked_softmax(meta, grad, arrays, out, saved):
    g = grad - _softmax_dot(grad, out, meta["axis"])
    np.multiply(g, out, out=g)
    return (g,)


def _fw_scaled_masked_softmax(meta, arrays, out=None):
    """``masked_softmax(a * scale)`` as one kernel (attention logits)."""
    (a,) = arrays
    scores = np.multiply(a, meta["scale"], out=out)
    scores += _mask_like(meta, a)
    return _softmax_into(scores, meta["axis"], scores), None


def _bw_scaled_masked_softmax(meta, grad, arrays, out, saved):
    g = grad - _softmax_dot(grad, out, meta["axis"])
    np.multiply(g, out, out=g)
    g *= meta["scale"]
    return (g,)


register_kernel("softmax", _fw_softmax, _bw_softmax,
                arena=True, vjp_uses=("output",))
register_kernel("masked_softmax", _fw_masked_softmax, _bw_masked_softmax,
                arena=True, vjp_uses=("output",))
register_kernel("scaled_masked_softmax", _fw_scaled_masked_softmax,
                _bw_scaled_masked_softmax,
                arena=True, vjp_uses=("output",))
