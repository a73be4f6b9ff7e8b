"""GEMM kernels: ``matmul`` and the fused affine map ``linear``
(``x @ w + b`` as one node, what :func:`repro.nn.functional.linear`
records)."""

from __future__ import annotations

import numpy as np

from .registry import register_kernel


def _matmul_vjp_arrays(grad: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Gradients of ``a @ b`` following numpy semantics (incl. batched)."""
    from ..tensor import unbroadcast

    if a.ndim == 1 and b.ndim == 1:
        return grad * b, grad * a
    if a.ndim == 1:
        # (k,) @ (..., k, n) -> (..., n)
        ga = (grad[..., None, :] * b).sum(axis=-1)
        gb = a[:, None] * grad[..., None, :]
        return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)
    if b.ndim == 1:
        # (..., m, k) @ (k,) -> (..., m)
        ga = grad[..., :, None] * b
        gb = (a * grad[..., :, None]).sum(axis=tuple(range(a.ndim - 1)))
        return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)
    ga = grad @ np.swapaxes(b, -1, -2)
    if b.ndim == 2 and a.ndim > 2:
        # Batched activations against one shared 2-D weight: fold the
        # batch axes into the contraction and run a single GEMM instead
        # of a stack of tiny ones followed by a reduction over a large
        # temporary (transposed orientation: BLAS prefers small-M
        # huge-K this way round).
        k, n = b.shape
        gb = (grad.reshape(-1, n).T @ a.reshape(-1, k)).T
        return unbroadcast(ga, a.shape), gb
    gb = np.swapaxes(a, -1, -2) @ grad
    return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)


def _fw_matmul(meta, arrays, out=None):
    a, b = arrays
    return np.matmul(a, b, out=out), None


def _bw_matmul(meta, grad, arrays, out, saved):
    return _matmul_vjp_arrays(grad, arrays[0], arrays[1])


def _fw_linear(meta, arrays, out=None):
    x, w, b = arrays
    z = np.matmul(x, w, out=out)
    # out=None allocates the sum, so ``b`` may broadcast ``z`` up.
    return np.add(z, b, out=out), None


def _bw_linear(meta, grad, arrays, out, saved):
    gx, gw = _matmul_vjp_arrays(grad, arrays[0], arrays[1])
    return gx, gw, grad


register_kernel("matmul", _fw_matmul, _bw_matmul,
                arena=True, vjp_uses=("inputs",))
register_kernel("linear", _fw_linear, _bw_linear,
                arena=True, vjp_uses=("inputs",))
