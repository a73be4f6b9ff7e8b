"""Elementwise kernels: arithmetic (``add``/``mul``/``div``/``power``)
and pointwise maps (``exp``/``log``/``sqrt``/``abs`` and the
activations).  One ufunc each, so every arena forward is that ufunc
with ``out=out``."""

from __future__ import annotations

import numpy as np

from .registry import register_kernel


def _denom_floor(dtype) -> float:
    """Smallest safe softmax-denominator floor for a working dtype.

    The historical float64 constant ``1e-300`` is kept bit-for-bit for
    8-byte floats (the engine's dtype and its bitwise gate); kernels
    follow their operands' dtype, so narrower ones get their own
    smallest positive normal instead, since ``1e-300`` underflows to
    ``0.0`` in float32 and would stop guarding at all.
    """
    if dtype.itemsize >= 8:
        return 1e-300
    return float(np.finfo(dtype).tiny)


def _fw_add(meta, arrays, out=None):
    return np.add(arrays[0], arrays[1], out=out), None


def _bw_add(meta, grad, arrays, out, saved):
    return grad, grad


def _fw_mul(meta, arrays, out=None):
    return np.multiply(arrays[0], arrays[1], out=out), None


def _mul_operand_grad(grad: np.ndarray, other: np.ndarray,
                      operand_shape: tuple) -> np.ndarray:
    """``grad * other`` reduced to a row-broadcast operand's shape.

    When the operand was broadcast from ``(E, 1, ..., 1)`` (per-edge
    attention weights scaling full messages), fold the product and the
    trailing reduction into one row-dot pass instead of materialising
    the full product and summing it afterwards.
    """
    if (
        operand_shape != grad.shape
        and other.shape == grad.shape
        and len(operand_shape) == grad.ndim
        and operand_shape[0] == grad.shape[0]
        and all(s == 1 for s in operand_shape[1:])
        and grad.flags.c_contiguous
        and other.flags.c_contiguous
    ):
        rows = grad.shape[0]
        folded = np.einsum(
            "ij,ij->i", grad.reshape(rows, -1), other.reshape(rows, -1)
        )
        return folded.reshape(operand_shape)
    return grad * other


def _bw_mul(meta, grad, arrays, out, saved):
    a, b = arrays
    # ``needs`` marks which operands require grad at record time; the
    # skipped gradient would be discarded by the executor anyway, so
    # not computing it changes nothing but the wall clock.
    needs = meta["needs"] if meta else (True, True)
    ga = _mul_operand_grad(grad, b, a.shape) if needs[0] else None
    gb = _mul_operand_grad(grad, a, b.shape) if needs[1] else None
    return ga, gb


def _fw_div(meta, arrays, out=None):
    return np.divide(arrays[0], arrays[1], out=out), None


def _bw_div(meta, grad, arrays, out, saved):
    a, b = arrays
    needs = meta["needs"] if meta else (True, True)
    ga = grad / b if needs[0] else None
    gb = -grad * a / (b * b) if needs[1] else None
    return ga, gb


def _fw_power(meta, arrays, out=None):
    # Not an arena kernel: ``a ** e`` may take numpy's scalar-exponent
    # fast paths, which ``np.power(..., out=...)`` is not guaranteed to
    # reproduce bit-for-bit.
    (a,) = arrays
    return a ** meta["exponent"], None


def _bw_power(meta, grad, arrays, out, saved):
    (a,) = arrays
    exponent = meta["exponent"]
    return (grad * exponent * a ** (exponent - 1.0),)


def _fw_exp(meta, arrays, out=None):
    return np.exp(arrays[0], out=out), None


def _bw_exp(meta, grad, arrays, out, saved):
    return (grad * out,)


_LOG_EPS = 1e-12


def _fw_log(meta, arrays, out=None):
    # Guard non-positive inputs: clamp into [eps, inf) so the forward
    # yields a large-negative value instead of nan/-inf and the backward
    # stays finite.
    return np.log(np.maximum(arrays[0], _LOG_EPS), out=out), None


def _bw_log(meta, grad, arrays, out, saved):
    # The clamped input is recomputed, not saved: saving it would keep
    # a copy of the operand that the arena cannot plan.
    return (grad / np.maximum(arrays[0], _LOG_EPS),)


def _fw_sqrt(meta, arrays, out=None):
    return np.sqrt(arrays[0], out=out), None


def _bw_sqrt(meta, grad, arrays, out, saved):
    return (grad * 0.5 / np.maximum(out, _denom_floor(out.dtype)),)


def _fw_abs(meta, arrays, out=None):
    return np.abs(arrays[0], out=out), None


def _bw_abs(meta, grad, arrays, out, saved):
    return (grad * np.sign(arrays[0]),)


def _fw_relu(meta, arrays, out=None):
    (a,) = arrays
    mask = a > 0
    # a * mask, not np.maximum(a, 0): negative inputs yield -0.0, the
    # bits every recorded trajectory was produced with.
    return np.multiply(a, mask, out=out), mask


def _bw_relu(meta, grad, arrays, out, saved):
    return (grad * saved,)


def _leaky_scale(meta, a: np.ndarray) -> np.ndarray:
    """Per-element slope of ``leaky_relu`` at ``a`` (recomputed by the
    VJP rather than saved: it is operand-sized)."""
    # Typed scalars: np.where with two python floats would promote to
    # float64 regardless of the input dtype (bitwise no-op for float64).
    return np.where(a > 0, a.dtype.type(1.0),
                    a.dtype.type(meta["negative_slope"]))


def _fw_leaky_relu(meta, arrays, out=None):
    (a,) = arrays
    return np.multiply(a, _leaky_scale(meta, a), out=out), None


def _bw_leaky_relu(meta, grad, arrays, out, saved):
    return (grad * _leaky_scale(meta, arrays[0]),)


def _sigmoid_act(z: np.ndarray) -> np.ndarray:
    """Branch-stable logistic sigmoid (never exponentiates a positive)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _fw_sigmoid(meta, arrays, out=None):
    # Not an arena kernel: the branch-stable form comes out of np.where
    # (no out=); an in-place rewrite would risk inexact bits.
    return _sigmoid_act(arrays[0]), None


def _bw_sigmoid(meta, grad, arrays, out, saved):
    return (grad * out * (1.0 - out),)


def _fw_tanh(meta, arrays, out=None):
    return np.tanh(arrays[0], out=out), None


def _bw_tanh(meta, grad, arrays, out, saved):
    return (grad * (1.0 - out * out),)


register_kernel("add", _fw_add, _bw_add, arena=True, vjp_uses=())
register_kernel("mul", _fw_mul, _bw_mul, arena=True, vjp_uses=("inputs",))
register_kernel("div", _fw_div, _bw_div, arena=True, vjp_uses=("inputs",))
register_kernel("power", _fw_power, _bw_power, vjp_uses=("inputs",))
register_kernel("exp", _fw_exp, _bw_exp, arena=True, vjp_uses=("output",))
register_kernel("log", _fw_log, _bw_log, arena=True, vjp_uses=("inputs",))
register_kernel("sqrt", _fw_sqrt, _bw_sqrt,
                arena=True, vjp_uses=("output",))
register_kernel("abs", _fw_abs, _bw_abs, arena=True, vjp_uses=("inputs",))
register_kernel("relu", _fw_relu, _bw_relu, arena=True, vjp_uses=("saved",))
register_kernel("leaky_relu", _fw_leaky_relu, _bw_leaky_relu,
                arena=True, vjp_uses=("inputs",))
register_kernel("sigmoid", _fw_sigmoid, _bw_sigmoid, vjp_uses=("output",))
register_kernel("tanh", _fw_tanh, _bw_tanh,
                arena=True, vjp_uses=("output",))
