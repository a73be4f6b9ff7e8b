"""GEMM kernels: ``matmul`` and the fused affine family ``linear`` /
``linear_<act>`` (``act(x @ w + b)`` as one node)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .elementwise import _sigmoid_act
from .registry import fused_enabled, register_kernel


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
    if b.ndim == 2 and a.ndim > 2 and fused_enabled():
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
    if a.ndim < 2 or b.ndim < 2:
        return a @ b, None  # vector operands: no stable out= form
    return np.matmul(a, b, out=out), None


def _bw_matmul(meta, grad, arrays, out, saved):
    return _matmul_vjp_arrays(grad, arrays[0], arrays[1])


def _make_linear_act(act_forward: Callable, act_grad: Callable):
    """Build forward/vjp for ``act(x @ w + b)``.

    ``act_forward(z, out=None)`` applies the activation (the forward
    passes ``out=z``: its own fresh or arena buffer, safe to overwrite);
    ``act_grad(grad, out)`` must return the gradient at the
    pre-activation, element-for-element identical to the unfused
    activation VJP so fused and composed graphs stay bit-equal.
    """

    def forward(meta, arrays, out=None):
        x, w, b = arrays
        if x.ndim < 2 or w.ndim < 2:
            # vector operands: no stable out= form
            return act_forward((x @ w) + b), None
        z = np.matmul(x, w, out=out)
        # out=None allocates the sum, so ``b`` may broadcast ``z`` up.
        z = np.add(z, b, out=out)
        return act_forward(z, out=z), None

    def vjp(meta, grad, arrays, out, saved):
        gz = act_grad(grad, out)
        gx, gw = _matmul_vjp_arrays(gz, arrays[0], arrays[1])
        return gx, gw, gz

    return forward, vjp


def _relu_act(z: np.ndarray, out=None) -> np.ndarray:
    return np.multiply(z, z > 0, out=out)


_fw_linear, _bw_linear = _make_linear_act(
    lambda z, out=None: z, lambda grad, out: grad
)
_fw_linear_relu, _bw_linear_relu = _make_linear_act(
    _relu_act, lambda grad, out: grad * (out > 0)
)
_fw_linear_tanh, _bw_linear_tanh = _make_linear_act(
    np.tanh, lambda grad, out: grad * (1.0 - out * out)
)
_, _bw_linear_sigmoid = _make_linear_act(
    _sigmoid_act, lambda grad, out: grad * out * (1.0 - out)
)


def _fw_linear_sigmoid(meta, arrays, out=None):
    # Not an arena kernel: the branch-stable sigmoid comes out of
    # np.where as a fresh array, so ``out`` is ignored.
    return _sigmoid_act(_fw_linear(meta, arrays)[0]), None


register_kernel("matmul", _fw_matmul, _bw_matmul,
                arena=True, vjp_uses=("inputs",))
register_kernel("linear", _fw_linear, _bw_linear,
                arena=True, vjp_uses=("inputs",))
register_kernel("linear_relu", _fw_linear_relu, _bw_linear_relu,
                arena=True, vjp_uses=("inputs", "output"))
register_kernel("linear_tanh", _fw_linear_tanh, _bw_linear_tanh,
                arena=True, vjp_uses=("inputs", "output"))
register_kernel("linear_sigmoid", _fw_linear_sigmoid, _bw_linear_sigmoid,
                vjp_uses=("inputs", "output"))
