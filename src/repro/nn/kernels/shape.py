"""Shape and reduction kernels: views (``reshape``/``transpose``),
joins (``concat``/``stack``/``pad_time``) and the reduction ``sum``."""

from __future__ import annotations

import numpy as np

from .registry import register_kernel


def _fw_reshape(meta, arrays, out=None):
    return arrays[0].reshape(meta["shape"]), None


def _bw_reshape(meta, grad, arrays, out, saved):
    return (grad.reshape(meta["old_shape"]),)


def _fw_transpose(meta, arrays, out=None):
    return np.transpose(arrays[0], meta["axes"]), None


def _bw_transpose(meta, grad, arrays, out, saved):
    return (np.transpose(grad, meta["inverse"]),)


def _fw_sum(meta, arrays, out=None):
    # The method, not ``np.sum``: the function form costs >1 us more.
    return arrays[0].sum(axis=meta["axis"], keepdims=meta["keepdims"],
                         out=out), None


def _expand_reduced_grad(grad: np.ndarray, axis, keepdims: bool,
                         in_shape: tuple) -> np.ndarray:
    """Re-insert reduced axes so ``grad`` broadcasts against ``in_shape``."""
    g = np.asarray(grad)
    if axis is None:
        return g
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(ax % len(in_shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return g


def _bw_sum(meta, grad, arrays, out, saved):
    in_shape = meta["in_shape"]
    g = _expand_reduced_grad(grad, meta["axis"], meta["keepdims"], in_shape)
    return (np.broadcast_to(g, in_shape).copy(),)


def _fw_concat(meta, arrays, out=None):
    return np.concatenate(arrays, axis=meta["axis"], out=out), None


def _bw_concat(meta, grad, arrays, out, saved):
    return tuple(np.split(grad, meta["splits"], axis=meta["axis"]))


def _fw_stack(meta, arrays, out=None):
    return np.stack(arrays, axis=meta["axis"], out=out), None


def _bw_stack(meta, grad, arrays, out, saved):
    axis = meta["axis"]
    parts = np.split(grad, len(arrays), axis=axis)
    return tuple(np.squeeze(p, axis=axis) for p in parts)


def _fw_pad_time(meta, arrays, out=None):
    (a,) = arrays
    left, t = meta["left"], a.shape[-2]
    if out is None:
        out = np.empty(a.shape[:-2] + (left + t + meta["right"],)
                       + a.shape[-1:], dtype=a.dtype)
    out.fill(0.0)
    index = [slice(None)] * a.ndim
    index[-2] = slice(left, left + t)
    out[tuple(index)] = a
    return out, None


def _bw_pad_time(meta, grad, arrays, out, saved):
    left, t = meta["left"], meta["t"]
    index = [slice(None)] * grad.ndim
    index[-2] = slice(left, left + t)
    return (grad[tuple(index)],)


register_kernel("reshape", _fw_reshape, _bw_reshape, vjp_uses=())
register_kernel("transpose", _fw_transpose, _bw_transpose, vjp_uses=())
register_kernel("sum", _fw_sum, _bw_sum, arena=True, vjp_uses=())
register_kernel("concat", _fw_concat, _bw_concat, arena=True, vjp_uses=())
register_kernel("stack", _fw_stack, _bw_stack, arena=True, vjp_uses=())
register_kernel("pad_time", _fw_pad_time, _bw_pad_time,
                arena=True, vjp_uses=())
