"""Graph-plan execution engine for the ``repro.nn`` autograd substrate.

Every model in this repository bottoms out in the reverse-mode autograd
of :mod:`repro.nn.tensor`.  The original implementation was deliberately
eager: each op allocated a fresh ``Tensor``, captured a backward closure,
and every ``backward()`` re-derived a topological order.  This module is
the remedy — *record once, plan, then execute* — in three layers:

1. **Kernel registry** (:data:`KERNELS`).  Every primitive op is a named
   :class:`OpKernel` holding a pure ``forward(meta, arrays)`` /
   ``vjp(meta, grad, arrays, out, saved)`` pair.  The eager dispatcher in
   :mod:`repro.nn.tensor` and the planned executor below share these
   functions, so eager and planned execution are the *same numerics by
   construction*.  Kernels may carry a slower ``reference`` variant that
   preserves the original (pre-engine) float association exactly; the
   optimized variants (GEMM conv backward instead of ``einsum``,
   sort+``reduceat`` scatter-add instead of ``np.add.at``, in-place
   masked softmax, width-1 conv specialisation) are selected whenever the
   engine mode is not ``"eager"``.

2. **Construction-time fusion** (:func:`match_fusion`).  When the
   dispatcher records ``add(matmul(x, w), b)`` it emits a single
   ``linear`` node with parents ``(x, w, b)`` and a fused VJP; a
   following ``relu`` / ``tanh`` / ``sigmoid`` folds into
   ``linear_<act>``, and ``sum(mul(a, b))`` becomes a ``mul_sum``
   reduction whose VJP never materialises the broadcast gradient.  The
   fused forward reuses the already-computed producer value, so fusion
   is free at record time, and the fused VJPs are element-for-element
   identical to the composition they replace.

3. **Plan compile + replay** (:class:`CompiledLoss`).  Tracing one
   forward records a tape; the tape is pruned to the loss ancestors and
   its creation order *is* a topological order (parents are always
   created before children), so the resulting :class:`PlanStructure` —
   the op schedule — is derived once per compile rather than re-sorted
   on every ``backward()``.  An :class:`ExecutionPlan` binds a
   structure to concrete leaves and replays forward + backward as a
   flat loop over arrays with step-reused gradient references: no
   ``Tensor`` objects, no closures, no per-step garbage.  There is one
   forward loop and one backward loop; while a kernel profiler is
   installed the same loops report each step to a per-replay observer,
   so a kernel profile is a measurement of the loop production runs.

4. **Pass pipeline + backends** (:mod:`repro.nn.passes`,
   :mod:`repro.nn.backends`).  Binding a structure runs liveness
   analysis over the schedule and assigns step outputs to a
   preallocated arena of reusable buffers, so steady-state replay
   allocates ≈ nothing for the outputs it manages.  The
   :class:`~repro.nn.backends.ExecutionBackend` active at compile time
   supplies the dtype policy — ``float64`` (trainers; the bitwise gate
   below) and a ``float32`` serving backend selected per
   ``GatewayConfig(precision=...)`` with an explicit accuracy budget.
   Passes never touch the eager path, so planned float64 replay stays
   bitwise-identical to the fused eager walk.

Replay assumes the traced structure is *static*: same batch arrays, same
index/mask constants, same control flow.  Ops whose recorded constants
depend on tensor *values* (dropout masks, Huber's quadratic/linear
split) call :func:`mark_dynamic` during tracing, and the compiled loss
transparently falls back to fused-eager execution.  Trainers key one
``CompiledLoss`` per training batch, which makes the assumption hold by
construction; ``load_state_dict`` is safe because plans re-read
``parameter.data`` on every run.

Mode control: ``REPRO_NN_ENGINE`` (``"fused"`` default, ``"eager"`` for
the pre-engine reference path) or the :func:`use_mode` context manager.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.profiling import KernelProfiler, estimate_cost
from ..obs.tracing import span as _obs_span
from . import passes as _passes
from .backends import (
    BACKENDS,
    FLOAT32_ACCURACY_BUDGET,
    ExecutionBackend,
    active_backend,
    active_dtype,
    get_backend,
    register_backend,
    use_backend,
)

__all__ = [
    "OpKernel",
    "KERNELS",
    "register_kernel",
    "ExecutionBackend",
    "BACKENDS",
    "FLOAT32_ACCURACY_BUDGET",
    "register_backend",
    "get_backend",
    "active_backend",
    "active_dtype",
    "use_backend",
    "engine_mode",
    "set_engine_mode",
    "use_mode",
    "fused_enabled",
    "match_fusion",
    "trace",
    "mark_dynamic",
    "record_node",
    "PlanError",
    "PlanStructure",
    "ExecutionPlan",
    "CompiledLoss",
    "compile_plan",
    "inference_mode",
    "stats_snapshot",
    "reset_stats",
    "kernel_profiler",
    "set_kernel_profiler",
]


# ======================================================================
# mode control
# ======================================================================
_VALID_MODES = ("fused", "eager")
_MODE = [os.environ.get("REPRO_NN_ENGINE", "fused")]
if _MODE[0] not in _VALID_MODES:
    _MODE[0] = "fused"


def engine_mode() -> str:
    """Current execution mode: ``"fused"`` or ``"eager"``."""
    return _MODE[0]


def set_engine_mode(mode: str) -> None:
    """Switch the global execution mode."""
    if mode not in _VALID_MODES:
        raise ValueError(f"unknown engine mode {mode!r}; use one of {_VALID_MODES}")
    _MODE[0] = mode


class use_mode:
    """Context manager pinning the engine mode for a block."""

    def __init__(self, mode: str) -> None:
        if mode not in _VALID_MODES:
            raise ValueError(f"unknown engine mode {mode!r}; use one of {_VALID_MODES}")
        self._mode = mode

    def __enter__(self) -> "use_mode":
        self._prev = _MODE[0]
        _MODE[0] = self._mode
        return self

    def __exit__(self, *exc_info: object) -> None:
        _MODE[0] = self._prev


def fused_enabled() -> bool:
    """Whether fused kernels / fusion rewrites are active."""
    return _MODE[0] != "eager"


# ======================================================================
# stats
# ======================================================================
_STATS: Dict[str, int] = {}
_STATS_LOCK = threading.Lock()


def _bump(key: str, amount: int = 1) -> None:
    # Gateway replica threads and trainer threads bump concurrently;
    # dict read-modify-write is not atomic, so serialise under a lock.
    with _STATS_LOCK:
        _STATS[key] = _STATS.get(key, 0) + amount


def stats_snapshot() -> Dict[str, int]:
    """Copy of the engine counters (plans built, replays, fusions, ...).

    Thread-safe (taken under the same lock ``_bump`` holds).  Includes
    the profiling plane's state: ``profiling_enabled`` (whether a
    :class:`repro.obs.profiling.KernelProfiler` is installed) and
    ``profiled_replays`` (replays that reported to a replay observer).
    """
    with _STATS_LOCK:
        snapshot = dict(_STATS)
    snapshot["profiling_enabled"] = int(_PROFILER[0] is not None)
    snapshot.setdefault("profiled_replays", 0)
    return snapshot


def reset_stats() -> None:
    """Zero all engine counters (thread-safe)."""
    with _STATS_LOCK:
        _STATS.clear()


# ======================================================================
# kernel profiling hook (see repro.obs.profiling)
# ======================================================================
_PROFILER: List[Optional[object]] = [None]


def kernel_profiler():
    """The installed per-kernel profiler, or ``None`` when disabled."""
    return _PROFILER[0]


def set_kernel_profiler(profiler) -> None:
    """Install a :class:`repro.obs.profiling.KernelProfiler` (or ``None``).

    While installed, every ``ExecutionPlan.forward``/``backward`` replay
    reports each step to an observer that attributes wall time and
    estimated FLOPs/bytes to its :class:`OpKernel`; when ``None`` (the
    default) the same loops run with no observer, at the cost of one
    ``is None`` test per step.  Prefer the
    :func:`repro.obs.profiling.profile_kernels` context manager, which
    restores the previous profiler on exit.
    """
    _PROFILER[0] = profiler


@contextmanager
def inference_mode():
    """``no_grad`` plus engine accounting for serving-style forwards."""
    from .tensor import no_grad

    _bump("inference_forwards")
    with no_grad():
        yield


# ======================================================================
# kernel registry
# ======================================================================
#: Conservative default for :attr:`OpKernel.vjp_uses` — assume the VJP
#: reads everything, so unannotated kernels never get a buffer reused
#: out from under their backward.
DEFAULT_VJP_USES = ("inputs", "output", "saved")


class OpKernel:
    """A named forward/VJP pair, optionally with a reference variant.

    ``forward(meta, arrays) -> (out, saved)`` computes the op on raw
    numpy arrays; ``saved`` is opaque data reused by the VJP.
    ``vjp(meta, grad, arrays, out, saved) -> tuple`` returns one
    gradient (or ``None``) per input array; the caller unbroadcasts.
    ``ref_forward`` / ``ref_vjp`` preserve the pre-engine float
    association bit-for-bit and are used in ``"eager"`` mode.

    ``forward_out(meta, arrays, out) -> (out, saved)`` is the optional
    arena variant: write the result into the caller-owned ``out``
    buffer, **bit-for-bit identical** to ``forward``.  It may return a
    different array (falling back to a fresh allocation) when the
    recorded shapes cannot be written in place.

    ``vjp_uses`` declares which forward-time arrays the VJP actually
    reads — any subset of ``("inputs", "output", "saved")`` — and is
    the liveness contract :func:`repro.nn.passes.plan_memory` relies on
    to recycle buffers before backward.  A kernel whose VJP only looks
    at ``meta``/``grad`` (or array *shapes* via ``meta``) declares
    ``()``; reading ``len(arrays)`` alone does not count as a use.
    """

    __slots__ = ("name", "forward", "vjp", "ref_forward", "ref_vjp",
                 "forward_out", "vjp_uses")

    def __init__(self, name: str, forward: Callable, vjp: Callable,
                 ref_forward: Optional[Callable] = None,
                 ref_vjp: Optional[Callable] = None,
                 forward_out: Optional[Callable] = None,
                 vjp_uses: Tuple[str, ...] = DEFAULT_VJP_USES) -> None:
        self.name = name
        self.forward = forward
        self.vjp = vjp
        self.ref_forward = ref_forward or forward
        self.ref_vjp = ref_vjp or vjp
        self.forward_out = forward_out
        self.vjp_uses = tuple(vjp_uses)


KERNELS: Dict[str, OpKernel] = {}


def register_kernel(name: str, forward: Callable, vjp: Callable,
                    ref_forward: Optional[Callable] = None,
                    ref_vjp: Optional[Callable] = None,
                    forward_out: Optional[Callable] = None,
                    vjp_uses: Tuple[str, ...] = DEFAULT_VJP_USES) -> OpKernel:
    """Add an :class:`OpKernel` to the registry (see ROADMAP for the
    recipe for new fused kernels)."""
    kernel = OpKernel(name, forward, vjp, ref_forward, ref_vjp,
                      forward_out, vjp_uses)
    KERNELS[name] = kernel
    return kernel


def select_kernel(name: str) -> Tuple[Callable, Callable]:
    """Resolve the (forward, vjp) pair for the current mode."""
    kernel = KERNELS[name]
    if fused_enabled():
        return kernel.forward, kernel.vjp
    return kernel.ref_forward, kernel.ref_vjp


# ======================================================================
# shared numeric helpers
# ======================================================================
def _matmul_vjp_arrays(grad: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Gradients of ``a @ b`` following numpy semantics (incl. batched)."""
    from .tensor import unbroadcast

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


def _scatter_rows(index: np.ndarray, values: np.ndarray, num_rows: int,
                  meta: dict) -> np.ndarray:
    """Scatter-add ``values`` rows into ``num_rows`` buckets.

    Implemented as one ``np.bincount`` over a flattened composite index
    ``row * row_size + column`` — a tight C accumulation loop that beats
    ``np.add.at`` ~4x at this repo's edge counts (a sort + ``reduceat``
    pipeline was measured and rejected too).  ``bincount`` adds in scan
    order exactly like ``np.add.at``, so the result is bit-identical to
    the unbuffered scatter.  The composite index only depends on the
    (plan-static) gather index and row size, so it is memoised in
    ``meta`` and replays for free.
    """
    out_shape = (num_rows,) + values.shape[1:]
    if index.size == 0:
        return np.zeros(out_shape, dtype=values.dtype)
    if index.min() < 0:
        # bincount rejects negatives; normalise like numpy indexing does.
        index = index + (index < 0) * num_rows
    if values.ndim == 1:
        # bincount accumulates in float64; cast back to the working
        # dtype (a no-op copy-free view under the float64 backend).
        return np.bincount(
            index, weights=values, minlength=num_rows
        ).astype(values.dtype, copy=False)
    flat = values.reshape(index.shape[0], -1)
    d = flat.shape[1]
    cache = meta.get("_flat_index")
    if cache is None or cache[1] != d:
        composite = (index[:, None] * d + np.arange(d)).ravel()
        meta["_flat_index"] = cache = (composite, d)
    return np.bincount(
        cache[0], weights=flat.ravel(), minlength=num_rows * d
    ).astype(values.dtype, copy=False).reshape(out_shape)


# ======================================================================
# kernels: arithmetic
# ======================================================================
def _fw_add(meta, arrays):
    a, b = arrays
    return a + b, None


def _bw_add(meta, grad, arrays, out, saved):
    return grad, grad


def _fw_mul(meta, arrays):
    a, b = arrays
    return a * b, None


def _mul_operand_grad(grad: np.ndarray, other: np.ndarray,
                      operand_shape: tuple) -> np.ndarray:
    """``grad * other`` reduced to a row-broadcast operand's shape.

    When the operand was broadcast from ``(E, 1, ..., 1)`` (per-edge
    attention weights scaling full messages), fold the product and the
    trailing reduction into one row-dot pass instead of materialising
    the full product and summing it afterwards.
    """
    if (
        fused_enabled()
        and operand_shape != grad.shape
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


def _fw_div(meta, arrays):
    a, b = arrays
    return a / b, None


def _bw_div(meta, grad, arrays, out, saved):
    a, b = arrays
    needs = meta["needs"] if meta else (True, True)
    ga = grad / b if needs[0] else None
    gb = -grad * a / (b * b) if needs[1] else None
    return ga, gb


def _fw_power(meta, arrays):
    (a,) = arrays
    return a ** meta["exponent"], None


def _bw_power(meta, grad, arrays, out, saved):
    (a,) = arrays
    exponent = meta["exponent"]
    return (grad * exponent * a ** (exponent - 1.0),)


def _fw_matmul(meta, arrays):
    a, b = arrays
    return a @ b, None


def _bw_matmul(meta, grad, arrays, out, saved):
    return _matmul_vjp_arrays(grad, arrays[0], arrays[1])


# ======================================================================
# kernels: shape
# ======================================================================
def _fw_reshape(meta, arrays):
    return arrays[0].reshape(meta["shape"]), None


def _bw_reshape(meta, grad, arrays, out, saved):
    return (grad.reshape(meta["old_shape"]),)


def _fw_transpose(meta, arrays):
    return np.transpose(arrays[0], meta["axes"]), None


def _bw_transpose(meta, grad, arrays, out, saved):
    return (np.transpose(grad, meta["inverse"]),)


def _fw_sum(meta, arrays):
    return arrays[0].sum(axis=meta["axis"], keepdims=meta["keepdims"]), None


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


def _fw_getitem(meta, arrays):
    return arrays[0][meta["index"]], None


def _bw_getitem_ref(meta, grad, arrays, out, saved):
    full = np.zeros(meta["in_shape"], dtype=np.asarray(grad).dtype)
    np.add.at(full, meta["index"], grad)
    return (full,)


def _bw_getitem(meta, grad, arrays, out, saved):
    index = meta["index"]
    if isinstance(index, np.ndarray):
        if index.dtype == np.bool_:
            # A boolean mask selects each row at most once.
            full = np.zeros(meta["in_shape"], dtype=np.asarray(grad).dtype)
            full[index] = grad
            return (full,)
        if index.ndim == 1 and np.issubdtype(index.dtype, np.integer):
            return (_scatter_rows(index, np.asarray(grad),
                                  meta["in_shape"][0], meta),)
    full = np.zeros(meta["in_shape"], dtype=np.asarray(grad).dtype)
    if isinstance(index, (int, np.integer, slice)) or (
        isinstance(index, tuple)
        and all(isinstance(i, (int, np.integer, slice)) for i in index)
    ):
        # Basic indexing never aliases, so plain assignment is exact.
        full[index] = grad
    else:
        np.add.at(full, index, grad)
    return (full,)


def _fw_concat(meta, arrays):
    return np.concatenate(arrays, axis=meta["axis"]), None


def _bw_concat(meta, grad, arrays, out, saved):
    return tuple(np.split(grad, meta["splits"], axis=meta["axis"]))


def _fw_stack(meta, arrays):
    return np.stack(arrays, axis=meta["axis"]), None


def _bw_stack(meta, grad, arrays, out, saved):
    axis = meta["axis"]
    parts = np.split(grad, len(arrays), axis=axis)
    return tuple(np.squeeze(p, axis=axis) for p in parts)


def _fw_pad_time(meta, arrays):
    (a,) = arrays
    pad_width = [(0, 0)] * a.ndim
    pad_width[-2] = (meta["left"], meta["right"])
    return np.pad(a, pad_width), None


def _bw_pad_time(meta, grad, arrays, out, saved):
    left, t = meta["left"], meta["t"]
    index = [slice(None)] * grad.ndim
    index[-2] = slice(left, left + t)
    return (grad[tuple(index)],)


# ======================================================================
# kernels: pointwise
# ======================================================================
def _fw_exp(meta, arrays):
    out = np.exp(arrays[0])
    return out, None


def _bw_exp(meta, grad, arrays, out, saved):
    return (grad * out,)


_LOG_EPS = 1e-12


def _fw_log(meta, arrays):
    # Guard non-positive inputs: clamp into [eps, inf) so the forward
    # yields a large-negative value instead of nan/-inf and the backward
    # stays finite.  (Numerics bugfix; applies in every mode.)
    safe = np.maximum(arrays[0], _LOG_EPS)
    return np.log(safe), safe


def _bw_log(meta, grad, arrays, out, saved):
    return (grad / saved,)


def _fw_sqrt(meta, arrays):
    return np.sqrt(arrays[0]), None


def _bw_sqrt(meta, grad, arrays, out, saved):
    return (grad * 0.5 / np.maximum(out, _denom_floor(out.dtype)),)


def _fw_abs(meta, arrays):
    return np.abs(arrays[0]), None


def _bw_abs(meta, grad, arrays, out, saved):
    return (grad * np.sign(arrays[0]),)


def _fw_relu(meta, arrays):
    (a,) = arrays
    mask = a > 0
    return a * mask, mask


def _bw_relu(meta, grad, arrays, out, saved):
    return (grad * saved,)


def _fw_leaky_relu(meta, arrays):
    (a,) = arrays
    # Typed scalars: np.where with two python floats would promote to
    # float64 regardless of the input dtype (bitwise no-op for float64).
    one = a.dtype.type(1.0)
    scale = np.where(a > 0, one, a.dtype.type(meta["negative_slope"]))
    return a * scale, scale


def _bw_leaky_relu(meta, grad, arrays, out, saved):
    return (grad * saved,)


def _fw_sigmoid(meta, arrays):
    (a,) = arrays
    z = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0 / (1.0 + z), z / (1.0 + z)), None


def _bw_sigmoid(meta, grad, arrays, out, saved):
    return (grad * out * (1.0 - out),)


def _fw_tanh(meta, arrays):
    return np.tanh(arrays[0]), None


def _bw_tanh(meta, grad, arrays, out, saved):
    return (grad * (1.0 - out * out),)


# ======================================================================
# kernels: softmax family
# ======================================================================
def _denom_floor(dtype) -> float:
    """Smallest safe softmax-denominator floor for a working dtype.

    The historical float64 constant ``1e-300`` is kept bit-for-bit for
    8-byte floats (the engine's bitwise gate); narrower dtypes get
    their own smallest positive normal instead, since ``1e-300``
    underflows to ``0.0`` in float32 and would stop guarding at all.
    """
    if dtype.itemsize >= 8:
        return 1e-300
    return float(np.finfo(dtype).tiny)


def _mask_like(meta, a: np.ndarray) -> np.ndarray:
    """The recorded additive mask, cast to the working dtype.

    Masks are recorded float64; under the float32 backend the cast is
    computed once and memoised under a kernel-private meta key.  For
    float64 inputs this returns the recorded array itself.
    """
    mask = meta["mask"]
    if mask.dtype == a.dtype:
        return mask
    cache = meta.get("_mask_cast")
    if cache is None or cache.dtype != a.dtype:
        cache = meta["_mask_cast"] = np.asarray(mask, dtype=a.dtype)
    return cache


def _fw_softmax(meta, arrays):
    (a,) = arrays
    axis = meta["axis"]
    row_max = a.max(axis=axis, keepdims=True)
    # Rows of -inf (fully suppressed logits) would otherwise turn into
    # nan via (-inf) - (-inf) and 0/0; guard both like masked_softmax.
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    ex = np.exp(a - row_max)
    denom = np.maximum(ex.sum(axis=axis, keepdims=True), _denom_floor(a.dtype))
    return ex / denom, None


def _bw_softmax(meta, grad, arrays, out, saved):
    axis = meta["axis"]
    dot = (grad * out).sum(axis=axis, keepdims=True)
    return (out * (grad - dot),)


def _fw_masked_softmax_ref(meta, arrays):
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


def _fw_masked_softmax(meta, arrays):
    (a,) = arrays
    mask, axis = _mask_like(meta, a), meta["axis"]
    scores = a + mask                       # only fresh allocation
    row_max = scores.max(axis=axis, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    np.subtract(scores, row_max, out=scores)
    # Masked entries are -inf after the shift, and exp(-inf) == 0.0
    # exactly, so no explicit isfinite bookkeeping is needed (finite
    # logits assumed; the reference variant also zeroes nan scores).
    np.exp(scores, out=scores)
    denom = scores.sum(axis=axis, keepdims=True)
    np.maximum(denom, _denom_floor(a.dtype), out=denom)
    np.divide(scores, denom, out=scores)
    return scores, None


def _bw_masked_softmax_ref(meta, grad, arrays, out, saved):
    axis = meta["axis"]
    dot = (grad * out).sum(axis=axis, keepdims=True)
    return (out * (grad - dot),)


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


def _fw_scaled_masked_softmax(meta, arrays):
    """``masked_softmax(a * scale)`` as one kernel (attention logits)."""
    (a,) = arrays
    axis = meta["axis"]
    scores = a * meta["scale"]
    scores += _mask_like(meta, a)
    row_max = scores.max(axis=axis, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    np.subtract(scores, row_max, out=scores)
    np.exp(scores, out=scores)
    denom = scores.sum(axis=axis, keepdims=True)
    np.maximum(denom, _denom_floor(a.dtype), out=denom)
    np.divide(scores, denom, out=scores)
    return scores, None


def _bw_scaled_masked_softmax(meta, grad, arrays, out, saved):
    g = grad - _softmax_dot(grad, out, meta["axis"])
    np.multiply(g, out, out=g)
    g *= meta["scale"]
    return (g,)


# ======================================================================
# kernels: graph primitives
# ======================================================================
def _fw_gather_rows(meta, arrays):
    return arrays[0][meta["index"]], None


def _bw_gather_rows_ref(meta, grad, arrays, out, saved):
    full = np.zeros(meta["in_shape"], dtype=np.asarray(grad).dtype)
    np.add.at(full, meta["index"], grad)
    return (full,)


def _bw_gather_rows(meta, grad, arrays, out, saved):
    return (_scatter_rows(meta["index"], np.asarray(grad),
                          meta["in_shape"][0], meta),)


def _fw_segment_sum_ref(meta, arrays):
    (a,) = arrays
    out = np.zeros((meta["num_segments"],) + a.shape[1:], dtype=a.dtype)
    np.add.at(out, meta["ids"], a)
    return out, None


def _fw_segment_sum(meta, arrays):
    (a,) = arrays
    return _scatter_rows(meta["ids"], a, meta["num_segments"], meta), None


def _bw_segment_sum(meta, grad, arrays, out, saved):
    return (grad[meta["ids"]],)


def _fw_segment_max_gather(meta, arrays):
    """Per-edge stability shift for the segment softmax.

    Recomputed from the *current* scores on every execution so that plan
    replay stays exact, but treated as a constant by the VJP — softmax
    is shift-invariant, so the gradient through the max is exactly zero.
    """
    (scores,) = arrays
    ids, num_segments = meta["ids"], meta["num_segments"]
    seg_max = np.full(num_segments, -np.inf, dtype=scores.dtype)
    np.maximum.at(seg_max, ids, scores)
    seg_max = np.where(np.isfinite(seg_max), seg_max, 0.0)
    return seg_max[ids], None


def _bw_segment_max_gather(meta, grad, arrays, out, saved):
    return (None,)


# ======================================================================
# kernels: convolution
# ======================================================================
def _im2col(x: np.ndarray, width: int) -> np.ndarray:
    """Extract sliding windows: ``(B, T, C) -> (B, T - w + 1, w, C)``."""
    b, t, c = x.shape
    out_t = t - width + 1
    strides = (x.strides[0], x.strides[1], x.strides[1], x.strides[2])
    return np.lib.stride_tricks.as_strided(
        x, shape=(b, out_t, width, c), strides=strides, writeable=False
    )


def _fw_conv1d_ref(meta, arrays):
    x, w = arrays[0], arrays[1]
    width, c_in, c_out = w.shape
    left, right = meta["left"], meta["right"]
    b = x.shape[0]
    xp = np.pad(x, ((0, 0), (left, right), (0, 0)))
    cols = _im2col(xp, width)
    w2 = w.reshape(width * c_in, c_out)
    out_t = cols.shape[1]
    cols2 = cols.reshape(b, out_t, width * c_in)
    out = cols2 @ w2
    if len(arrays) == 3:
        out = out + arrays[2]
    return out, np.ascontiguousarray(cols2)


def _bw_conv1d_ref(meta, grad, arrays, out, saved):
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


def _fw_conv1d(meta, arrays):
    x, w = arrays[0], arrays[1]
    width, c_in, c_out = w.shape
    b, t, _ = x.shape
    if width == 1:
        # Pointwise conv == per-timestamp linear map: one big GEMM, no
        # padding, no window extraction, nothing saved.
        out = (x.reshape(b * t, c_in) @ w[0]).reshape(b, t, c_out)
        if len(arrays) == 3:
            out += arrays[2]
        return out, None
    left, right = meta["left"], meta["right"]
    # Manual zero-pad: np.pad's generic machinery is measurably slower.
    xp = np.zeros((b, t + left + right, c_in), dtype=x.dtype)
    xp[:, left:left + t, :] = x
    cols = _im2col(xp, width)
    out_t = cols.shape[1]
    cols2 = np.ascontiguousarray(cols).reshape(b, out_t, width * c_in)
    out = cols2 @ w.reshape(width * c_in, c_out)
    if len(arrays) == 3:
        out += arrays[2]
    return out, cols2


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
    padded_len = out_t + 2 * (width - 1)
    gp = np.zeros((b, padded_len, c_out), dtype=grad.dtype)
    gp[:, width - 1:width - 1 + out_t, :] = grad
    gcols = np.ascontiguousarray(_im2col(gp, width))
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
    cols2 = saved
    k = width * c_in
    # GEMM instead of einsum, in the (small, huge-K) transposed
    # orientation BLAS handles best; the transpose copy is k x c_out.
    gw = (grad.reshape(b * out_t, c_out).T @ cols2.reshape(b * out_t, k))
    gw = np.ascontiguousarray(gw.T).reshape(width, c_in, c_out)
    gx = _conv_input_grad(grad, w, t, meta["left"])
    if len(arrays) == 3:
        return gx, gw, grad.sum(axis=(0, 1))
    return gx, gw


# ======================================================================
# kernels: fused
# ======================================================================
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


def _fw_multi_conv1d(meta, arrays):
    """Fused multi-scale causal conv bank over one shared input.

    Replaces K separate ``conv1d`` ops (skinny GEMMs + K pad/im2col
    passes, e.g. TEL's capture/denoise groups) with one im2col and one
    wide GEMM; outputs are laid out exactly as the channel-concat of the
    per-scale convs.
    """
    n = meta["num_scales"]
    x = arrays[0]
    ws = arrays[1:1 + n]
    widths = tuple(w.shape[0] for w in ws)
    wmax = max(widths)
    b, t, c_in = x.shape
    left = wmax - 1
    xp = np.zeros((b, t + left, c_in), dtype=x.dtype)
    xp[:, left:, :] = x
    cols2 = np.ascontiguousarray(_im2col(xp, wmax)).reshape(b * t, wmax * c_in)
    block = _block_weight(ws, wmax, c_in)
    out2 = cols2 @ block
    if meta["bias"]:
        out2 += np.concatenate(arrays[1 + n:])
    return out2.reshape(b, t, out2.shape[1]), (cols2, block)


def _bw_multi_conv1d(meta, grad, arrays, out, saved):
    n = meta["num_scales"]
    x = arrays[0]
    ws = arrays[1:1 + n]
    b, t, c_in = x.shape
    cols2, block = saved
    total = grad.shape[2]
    g2 = grad.reshape(b * t, total)
    g_block = np.ascontiguousarray((g2.T @ cols2).T).reshape(-1, c_in, total)
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


def _fw_linear(meta, arrays):
    x, w, b = arrays
    return (x @ w) + b, None


def _bw_linear(meta, grad, arrays, out, saved):
    gx, gw = _matmul_vjp_arrays(grad, arrays[0], arrays[1])
    return gx, gw, grad


def _make_linear_act(act_forward: Callable, act_grad: Callable):
    """Build forward/vjp for ``act(x @ w + b)``.

    ``act_grad(grad, out)`` must return the gradient at the
    pre-activation, element-for-element identical to the unfused
    activation VJP so fused and composed graphs stay bit-equal.
    """

    def forward(meta, arrays):
        x, w, b = arrays
        return act_forward((x @ w) + b), None

    def vjp(meta, grad, arrays, out, saved):
        gz = act_grad(grad, out)
        gx, gw = _matmul_vjp_arrays(gz, arrays[0], arrays[1])
        return gx, gw, gz

    return forward, vjp


def _relu_act(z: np.ndarray) -> np.ndarray:
    mask = z > 0
    return z * mask


def _sigmoid_act(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


_fw_linear_relu, _bw_linear_relu = _make_linear_act(
    _relu_act, lambda grad, out: grad * (out > 0)
)
_fw_linear_tanh, _bw_linear_tanh = _make_linear_act(
    np.tanh, lambda grad, out: grad * (1.0 - out * out)
)
_fw_linear_sigmoid, _bw_linear_sigmoid = _make_linear_act(
    _sigmoid_act, lambda grad, out: grad * out * (1.0 - out)
)


def _fw_mul_sum(meta, arrays):
    a, b = arrays
    return (a * b).sum(axis=meta["axis"], keepdims=meta["keepdims"]), None


def _bw_mul_sum(meta, grad, arrays, out, saved):
    a, b = arrays
    in_shape = meta["in_shape"]
    g = _expand_reduced_grad(grad, meta["axis"], meta["keepdims"], in_shape)
    # Broadcast *view* — the composed sum-VJP would materialise a copy.
    g = np.broadcast_to(g, in_shape)
    return g * b, g * a


# ======================================================================
# arena forward variants (write into caller-owned buffers)
# ======================================================================
# Each ``_fwo_*`` computes exactly what its ``_fw_*`` twin computes —
# same ufuncs, same order of operations — but lands the result in the
# arena buffer the memory plan assigned, so steady-state replay does
# not allocate the outputs it manages.  Bit-for-bit equality with the
# out-of-place variant is part of the kernel contract (property-tested
# in ``tests/test_passes.py``); kernels whose result cannot be written
# in place for the recorded shapes fall back to the allocating twin
# and return the fresh array.
def _fwo_add(meta, arrays, out):
    np.add(arrays[0], arrays[1], out=out)
    return out, None


def _fwo_mul(meta, arrays, out):
    np.multiply(arrays[0], arrays[1], out=out)
    return out, None


def _fwo_div(meta, arrays, out):
    np.divide(arrays[0], arrays[1], out=out)
    return out, None


def _fwo_exp(meta, arrays, out):
    np.exp(arrays[0], out=out)
    return out, None


def _fwo_log(meta, arrays, out):
    safe = np.maximum(arrays[0], _LOG_EPS)
    np.log(safe, out=out)
    return out, safe


def _fwo_sqrt(meta, arrays, out):
    np.sqrt(arrays[0], out=out)
    return out, None


def _fwo_abs(meta, arrays, out):
    np.abs(arrays[0], out=out)
    return out, None


def _fwo_tanh(meta, arrays, out):
    np.tanh(arrays[0], out=out)
    return out, None


def _fwo_relu(meta, arrays, out):
    (a,) = arrays
    mask = a > 0
    # a * mask, not np.maximum(a, 0): keeps -0.0 exactly as the
    # out-of-place kernel produces it.
    np.multiply(a, mask, out=out)
    return out, mask


def _fwo_leaky_relu(meta, arrays, out):
    (a,) = arrays
    one = a.dtype.type(1.0)
    scale = np.where(a > 0, one, a.dtype.type(meta["negative_slope"]))
    np.multiply(a, scale, out=out)
    return out, scale


def _fwo_sum(meta, arrays, out):
    np.sum(arrays[0], axis=meta["axis"], keepdims=meta["keepdims"], out=out)
    return out, None


def _fwo_matmul(meta, arrays, out):
    a, b = arrays
    if a.ndim >= 2 and b.ndim >= 2:
        np.matmul(a, b, out=out)
        return out, None
    return _fw_matmul(meta, arrays)  # vector cases: no stable out form


def _fwo_linear(meta, arrays, out):
    x, w, b = arrays
    if x.ndim < 2 or w.ndim < 2:
        return _fw_linear(meta, arrays)
    np.matmul(x, w, out=out)
    np.add(out, b, out=out)
    return out, None


def _fwo_linear_relu(meta, arrays, out):
    x, w, b = arrays
    if x.ndim < 2 or w.ndim < 2:
        return _fw_linear_relu(meta, arrays)
    np.matmul(x, w, out=out)
    np.add(out, b, out=out)
    mask = out > 0
    np.multiply(out, mask, out=out)
    return out, None


def _fwo_linear_tanh(meta, arrays, out):
    x, w, b = arrays
    if x.ndim < 2 or w.ndim < 2:
        return _fw_linear_tanh(meta, arrays)
    np.matmul(x, w, out=out)
    np.add(out, b, out=out)
    np.tanh(out, out=out)
    return out, None


def _fwo_softmax(meta, arrays, out):
    (a,) = arrays
    axis = meta["axis"]
    row_max = a.max(axis=axis, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    np.subtract(a, row_max, out=out)
    np.exp(out, out=out)
    denom = np.maximum(out.sum(axis=axis, keepdims=True),
                       _denom_floor(a.dtype))
    np.divide(out, denom, out=out)
    return out, None


def _fwo_masked_softmax(meta, arrays, out):
    (a,) = arrays
    mask, axis = _mask_like(meta, a), meta["axis"]
    np.add(a, mask, out=out)
    row_max = out.max(axis=axis, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    np.subtract(out, row_max, out=out)
    np.exp(out, out=out)
    denom = out.sum(axis=axis, keepdims=True)
    np.maximum(denom, _denom_floor(a.dtype), out=denom)
    np.divide(out, denom, out=out)
    return out, None


def _fwo_scaled_masked_softmax(meta, arrays, out):
    (a,) = arrays
    axis = meta["axis"]
    np.multiply(a, meta["scale"], out=out)
    out += _mask_like(meta, a)
    row_max = out.max(axis=axis, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    np.subtract(out, row_max, out=out)
    np.exp(out, out=out)
    denom = out.sum(axis=axis, keepdims=True)
    np.maximum(denom, _denom_floor(a.dtype), out=denom)
    np.divide(out, denom, out=out)
    return out, None


def _fwo_concat(meta, arrays, out):
    np.concatenate(arrays, axis=meta["axis"], out=out)
    return out, None


def _fwo_stack(meta, arrays, out):
    np.stack(arrays, axis=meta["axis"], out=out)
    return out, None


def _fwo_pad_time(meta, arrays, out):
    (a,) = arrays
    out.fill(0.0)
    index = [slice(None)] * a.ndim
    index[-2] = slice(meta["left"], meta["left"] + a.shape[-2])
    out[tuple(index)] = a
    return out, None


def _fwo_gather_rows(meta, arrays, out):
    np.take(arrays[0], meta["index"], axis=0, out=out)
    return out, None


def _fwo_segment_max_gather(meta, arrays, out):
    (scores,) = arrays
    ids, num_segments = meta["ids"], meta["num_segments"]
    seg_max = np.full(num_segments, -np.inf, dtype=scores.dtype)
    np.maximum.at(seg_max, ids, scores)
    seg_max = np.where(np.isfinite(seg_max), seg_max, 0.0)
    np.take(seg_max, ids, axis=0, out=out)
    return out, None


def _fwo_conv1d(meta, arrays, out):
    x, w = arrays[0], arrays[1]
    width, c_in, c_out = w.shape
    b, t, _ = x.shape
    if width == 1:
        np.matmul(x.reshape(b * t, c_in), w[0],
                  out=out.reshape(b * t, c_out))
        if len(arrays) == 3:
            out += arrays[2]
        return out, None
    left, right = meta["left"], meta["right"]
    xp = np.zeros((b, t + left + right, c_in), dtype=x.dtype)
    xp[:, left:left + t, :] = x
    cols = _im2col(xp, width)
    out_t = cols.shape[1]
    cols2 = np.ascontiguousarray(cols).reshape(b, out_t, width * c_in)
    np.matmul(cols2, w.reshape(width * c_in, c_out), out=out)
    if len(arrays) == 3:
        out += arrays[2]
    return out, cols2


def _fwo_multi_conv1d(meta, arrays, out):
    n = meta["num_scales"]
    x = arrays[0]
    ws = arrays[1:1 + n]
    widths = tuple(w.shape[0] for w in ws)
    wmax = max(widths)
    b, t, c_in = x.shape
    left = wmax - 1
    xp = np.zeros((b, t + left, c_in), dtype=x.dtype)
    xp[:, left:, :] = x
    cols2 = np.ascontiguousarray(_im2col(xp, wmax)).reshape(b * t, wmax * c_in)
    block = _block_weight(ws, wmax, c_in)
    out2 = out.reshape(b * t, out.shape[2])
    np.matmul(cols2, block, out=out2)
    if meta["bias"]:
        out2 += np.concatenate(arrays[1 + n:])
    return out, (cols2, block)


# ======================================================================
# registry population
# ======================================================================
# ``vjp_uses`` annotations are the liveness contract: which of
# (inputs, output, saved) each kernel's VJP reads at backward time.
# Reading only ``meta``/``grad`` (or shapes recorded in ``meta``)
# declares ``()``.  When in doubt, leave the conservative default.
register_kernel("add", _fw_add, _bw_add,
                forward_out=_fwo_add, vjp_uses=())
register_kernel("mul", _fw_mul, _bw_mul,
                forward_out=_fwo_mul, vjp_uses=("inputs",))
register_kernel("div", _fw_div, _bw_div,
                forward_out=_fwo_div, vjp_uses=("inputs",))
# power has no out-variant: ``a ** e`` may take numpy's scalar-exponent
# fast paths, which ``np.power(..., out=...)`` is not guaranteed to
# reproduce bit-for-bit.
register_kernel("power", _fw_power, _bw_power, vjp_uses=("inputs",))
register_kernel("matmul", _fw_matmul, _bw_matmul,
                forward_out=_fwo_matmul, vjp_uses=("inputs",))
register_kernel("reshape", _fw_reshape, _bw_reshape, vjp_uses=())
register_kernel("transpose", _fw_transpose, _bw_transpose, vjp_uses=())
register_kernel("sum", _fw_sum, _bw_sum,
                forward_out=_fwo_sum, vjp_uses=())
register_kernel("getitem", _fw_getitem, _bw_getitem,
                ref_vjp=_bw_getitem_ref, vjp_uses=())
register_kernel("concat", _fw_concat, _bw_concat,
                forward_out=_fwo_concat, vjp_uses=())
register_kernel("stack", _fw_stack, _bw_stack,
                forward_out=_fwo_stack, vjp_uses=())
register_kernel("pad_time", _fw_pad_time, _bw_pad_time,
                forward_out=_fwo_pad_time, vjp_uses=())
register_kernel("exp", _fw_exp, _bw_exp,
                forward_out=_fwo_exp, vjp_uses=("output",))
register_kernel("log", _fw_log, _bw_log,
                forward_out=_fwo_log, vjp_uses=("saved",))
register_kernel("sqrt", _fw_sqrt, _bw_sqrt,
                forward_out=_fwo_sqrt, vjp_uses=("output",))
register_kernel("abs", _fw_abs, _bw_abs,
                forward_out=_fwo_abs, vjp_uses=("inputs",))
register_kernel("relu", _fw_relu, _bw_relu,
                forward_out=_fwo_relu, vjp_uses=("saved",))
register_kernel("leaky_relu", _fw_leaky_relu, _bw_leaky_relu,
                forward_out=_fwo_leaky_relu, vjp_uses=("saved",))
# sigmoid's branch-stable form routes through np.where (no out=); it
# stays unmanaged rather than risking an inexact in-place rewrite.
register_kernel("sigmoid", _fw_sigmoid, _bw_sigmoid, vjp_uses=("output",))
register_kernel("tanh", _fw_tanh, _bw_tanh,
                forward_out=_fwo_tanh, vjp_uses=("output",))
register_kernel("softmax", _fw_softmax, _bw_softmax,
                forward_out=_fwo_softmax, vjp_uses=("output",))
register_kernel("masked_softmax", _fw_masked_softmax, _bw_masked_softmax,
                ref_forward=_fw_masked_softmax_ref,
                ref_vjp=_bw_masked_softmax_ref,
                forward_out=_fwo_masked_softmax, vjp_uses=("output",))
register_kernel("scaled_masked_softmax", _fw_scaled_masked_softmax,
                _bw_scaled_masked_softmax,
                forward_out=_fwo_scaled_masked_softmax,
                vjp_uses=("output",))
register_kernel("gather_rows", _fw_gather_rows, _bw_gather_rows,
                ref_vjp=_bw_gather_rows_ref,
                forward_out=_fwo_gather_rows, vjp_uses=())
# segment_sum forwards through bincount (allocates internally); an
# out-variant would only add a copy.
register_kernel("segment_sum", _fw_segment_sum, _bw_segment_sum,
                ref_forward=_fw_segment_sum_ref, vjp_uses=())
register_kernel("segment_max_gather", _fw_segment_max_gather,
                _bw_segment_max_gather,
                forward_out=_fwo_segment_max_gather, vjp_uses=())
register_kernel("conv1d", _fw_conv1d, _bw_conv1d,
                ref_forward=_fw_conv1d_ref, ref_vjp=_bw_conv1d_ref,
                forward_out=_fwo_conv1d, vjp_uses=("inputs", "saved"))
register_kernel("multi_conv1d", _fw_multi_conv1d, _bw_multi_conv1d,
                forward_out=_fwo_multi_conv1d,
                vjp_uses=("inputs", "saved"))
register_kernel("linear", _fw_linear, _bw_linear,
                forward_out=_fwo_linear, vjp_uses=("inputs",))
register_kernel("linear_relu", _fw_linear_relu, _bw_linear_relu,
                forward_out=_fwo_linear_relu,
                vjp_uses=("inputs", "output"))
register_kernel("linear_tanh", _fw_linear_tanh, _bw_linear_tanh,
                forward_out=_fwo_linear_tanh,
                vjp_uses=("inputs", "output"))
register_kernel("linear_sigmoid", _fw_linear_sigmoid, _bw_linear_sigmoid,
                vjp_uses=("inputs", "output"))
register_kernel("mul_sum", _fw_mul_sum, _bw_mul_sum, vjp_uses=("inputs",))

#: fused ops reachable only through :func:`match_fusion` or the fused
#: entry points in :mod:`repro.nn.functional` (``linear``, ``conv_bank``).
FUSED_OPS = ("linear", "linear_relu", "linear_tanh", "linear_sigmoid",
             "mul_sum", "multi_conv1d", "scaled_masked_softmax")

_ACT_FUSION = {"relu": "linear_relu", "tanh": "linear_tanh",
               "sigmoid": "linear_sigmoid"}


def _is_recorded(t: object, op: str) -> bool:
    return getattr(t, "_op", None) == op and getattr(t, "requires_grad", False)


def match_fusion(op: str, inputs: Sequence, meta: Optional[dict]):
    """Rewrite an op being recorded into a fused node, or return ``None``.

    The rewrite reuses the producer's already-computed forward value, so
    fusion never recomputes work at record time; replay computes the
    fused kernel directly (the bypassed producer is pruned from the
    plan unless another consumer needs it).

    Returns ``(op, inputs, meta, out_data, saved)``.
    """
    if op == "add" and len(inputs) == 2:
        for i in (0, 1):
            prod, other = inputs[i], inputs[1 - i]
            if _is_recorded(prod, "matmul") and prod is not other:
                x, w = prod._parents
                out = inputs[0].data + inputs[1].data
                _bump("fused_linear")
                return "linear", (x, w, other), {}, out, None
    elif op in _ACT_FUSION and len(inputs) == 1:
        prod = inputs[0]
        if _is_recorded(prod, "linear"):
            fused = _ACT_FUSION[op]
            if op == "relu":
                out = _relu_act(prod.data)
            elif op == "tanh":
                out = np.tanh(prod.data)
            else:
                out = _sigmoid_act(prod.data)
            _bump("fused_" + fused)
            return fused, prod._parents, {}, out, None
    elif op == "sum" and len(inputs) == 1:
        prod = inputs[0]
        if _is_recorded(prod, "mul"):
            new_meta = dict(meta)
            new_meta["in_shape"] = prod.data.shape
            out = prod.data.sum(axis=meta["axis"], keepdims=meta["keepdims"])
            _bump("fused_mul_sum")
            return "mul_sum", prod._parents, new_meta, out, None
    elif op == "concat" and len(inputs) >= 2 and meta["axis"] in (-1, 2):
        fused = _match_conv_bank(inputs)
        if fused is not None:
            return fused
    elif op == "masked_softmax" and len(inputs) == 1:
        prod = inputs[0]
        if _is_recorded(prod, "mul"):
            for raw, scale in (prod._parents, prod._parents[::-1]):
                if (
                    raw.requires_grad
                    and not scale.requires_grad
                    and scale.data.size == 1
                ):
                    new_meta = {"mask": meta["mask"], "axis": meta["axis"],
                                "scale": float(scale.data)}
                    out, _ = _fw_masked_softmax(meta, (prod.data,))
                    _bump("fused_scaled_masked_softmax")
                    return "scaled_masked_softmax", (raw,), new_meta, out, None
    return None


def _match_conv_bank(inputs: Sequence):
    """Concat of causal convs over one shared input -> ``multi_conv1d``.

    Fires on TEL-style multi-scale banks.  Unlike the other fusion
    rules, the bank recomputes its forward (one im2col + one block GEMM)
    instead of splicing the per-scale outputs, so that the recorded
    value is bit-identical to what plan replay computes; the bypassed
    per-scale conv nodes are pruned from the plan.
    """
    first_bias = None
    for node in inputs:
        if not _is_recorded(node, "conv1d") or node.data.ndim != 3:
            return None
        width = node._parents[1].data.shape[0]
        if node._meta["right"] != 0 or node._meta["left"] != width - 1:
            return None  # not causal
        has_bias = len(node._parents) == 3
        if first_bias is None:
            first_bias = has_bias
        elif has_bias != first_bias:
            return None
        if node._parents[0] is not inputs[0]._parents[0]:
            return None  # different source tensors
    x = inputs[0]._parents[0]
    weights = tuple(node._parents[1] for node in inputs)
    biases = tuple(node._parents[2] for node in inputs) if first_bias else ()
    new_meta = {"num_scales": len(inputs), "bias": first_bias}
    new_inputs = (x,) + weights + biases
    out, saved = _fw_multi_conv1d(
        new_meta, tuple(t.data for t in new_inputs)
    )
    _bump("fused_multi_conv1d")
    return "multi_conv1d", new_inputs, new_meta, out, saved


# ======================================================================
# tracing
# ======================================================================
class Tape:
    """Creation-ordered record of one traced forward pass."""

    __slots__ = ("nodes", "dynamic", "reasons")

    def __init__(self) -> None:
        self.nodes: List = []
        self.dynamic = False
        self.reasons: List[str] = []


_TAPES: List[Tape] = []


def record_node(tensor: object) -> None:
    """Called by the dispatcher for every op node while tracing."""
    if _TAPES:
        _TAPES[-1].nodes.append(tensor)


def tracing() -> bool:
    """Whether a trace is currently being recorded."""
    return bool(_TAPES)


def mark_dynamic(reason: str) -> None:
    """Flag the active trace as not replay-safe (value-dependent
    constants such as dropout masks or Huber's branch mask)."""
    if _TAPES:
        tape = _TAPES[-1]
        tape.dynamic = True
        if reason not in tape.reasons:
            tape.reasons.append(reason)


@contextmanager
def trace():
    """Record every op node created in the block onto a fresh tape."""
    tape = Tape()
    _TAPES.append(tape)
    try:
        yield tape
    finally:
        _TAPES.pop()


# ======================================================================
# plans
# ======================================================================
class PlanError(RuntimeError):
    """The traced graph cannot be compiled into a static plan."""


class _Step:
    """One scheduled op: slot-indexed inputs/output plus its kernel."""

    __slots__ = ("op", "ins", "out", "forward", "forward_out", "vjp")

    def __init__(self, op: str, ins: Tuple[int, ...], out: int) -> None:
        self.op = op
        self.ins = ins
        self.out = out
        kernel = KERNELS[op]
        self.forward = kernel.forward
        self.forward_out = kernel.forward_out
        self.vjp = kernel.vjp


class PlanStructure:
    """The architecture-level half of a plan: slots and the op schedule."""

    __slots__ = ("steps", "num_slots", "param_slots", "const_slots",
                 "root_slot", "slot_shapes", "needs_grad")

    def __init__(self, steps: List[_Step], num_slots: int,
                 param_slots: Tuple[int, ...], const_slots: Tuple[int, ...],
                 root_slot: int, slot_shapes: Tuple[tuple, ...]) -> None:
        self.steps = steps
        self.num_slots = num_slots
        self.param_slots = param_slots
        self.const_slots = const_slots
        self.root_slot = root_slot
        self.slot_shapes = slot_shapes
        needs = [False] * num_slots
        for slot in param_slots:
            needs[slot] = True
        for step in steps:
            needs[step.out] = any(needs[i] for i in step.ins)
        self.needs_grad = tuple(needs)


def compile_plan(root, tape: Tape) -> "ExecutionPlan":
    """Compile a traced scalar loss into an :class:`ExecutionPlan`.

    Lowering order: dead-node pruning (:mod:`repro.nn.passes`) →
    slot/schedule construction → plan binding, where binding runs
    liveness analysis and arena planning under the *active backend's*
    dtype.

    Raises :class:`PlanError` when the graph is not statically
    replayable (dynamic ops, ancestors created outside the trace, or a
    non-scalar root).
    """
    if tape.dynamic:
        raise PlanError("dynamic trace: " + ", ".join(tape.reasons))
    if root.data.size != 1:
        raise PlanError("plans require a scalar loss root")
    ancestors, op_nodes = _passes.prune_dead_nodes(root, tape.nodes)
    recorded = {id(t) for t in op_nodes}
    slot_of: Dict[int, int] = {}
    leaves: List = []
    for node in ancestors.values():
        if node._parents:
            if id(node) not in recorded:
                raise PlanError(
                    "loss depends on an op recorded outside the trace"
                )
        else:
            slot_of[id(node)] = len(leaves)
            leaves.append(node)
    steps: List[_Step] = []
    metas: List[Optional[dict]] = []
    next_slot = len(leaves)
    for node in op_nodes:
        if node._op is None or node._backward_fn is not None:
            raise PlanError(
                f"node {node!r} uses a closure backward; only registry "
                "kernels are replayable"
            )
        ins = tuple(slot_of[id(p)] for p in node._parents)
        slot_of[id(node)] = next_slot
        steps.append(_Step(node._op, ins, next_slot))
        metas.append(node._meta)
        next_slot += 1
    structure = PlanStructure(
        steps=steps,
        num_slots=next_slot,
        param_slots=tuple(
            i for i, leaf in enumerate(leaves) if leaf.requires_grad
        ),
        const_slots=tuple(
            i for i, leaf in enumerate(leaves) if not leaf.requires_grad
        ),
        root_slot=slot_of[id(root)],
        slot_shapes=tuple(
            [leaf.data.shape for leaf in leaves]
            + [n.data.shape for n in op_nodes]
        ),
    )
    _bump("plans_compiled")
    return ExecutionPlan(structure, leaves, metas)


class _ReplayObserver:
    """Clock and cost attribution for one profiled replay phase.

    :class:`ExecutionPlan` builds one per ``forward()`` / ``backward()``
    call while a kernel profiler is installed and reports every
    executed step to it.  Timing is boundary to boundary: one clock read
    per step, each step's elapsed spanning everything since the previous
    boundary (kernel, gradient accumulation, skipped dead-gradient
    steps, this observer's own work), so the per-kernel rows account
    for the replay wall time structurally.  Every measurement lands in
    both the installed profiler and the plan's own one.
    """

    __slots__ = ("_plan", "_phase", "_sinks", "_clock", "_costs",
                 "_start", "_boundary")

    def __init__(self, plan: "ExecutionPlan", profiler, phase: str) -> None:
        self._plan = plan
        self._phase = phase
        self._sinks = (profiler, plan._profile)
        self._clock = profiler.clock
        self._costs = plan._costs[phase]
        self._start = self._boundary = self._clock()

    def step(self, i: int) -> None:
        """Record step ``i`` as finished now."""
        plan = self._plan
        structure = plan.structure
        step = structure.steps[i]
        cost = self._costs[i]
        if cost is None:
            # Static shapes: estimated once per plan step, then cached.
            shapes = structure.slot_shapes
            cost = self._costs[i] = estimate_cost(
                step.op, tuple(shapes[j] for j in step.ins),
                shapes[step.out], plan.metas[i], phase=self._phase,
                itemsize=plan._dtype.itemsize,
            )
        now = self._clock()
        elapsed = now - self._boundary
        self._boundary = now
        for sink in self._sinks:
            sink.record(step.op, self._phase, elapsed, cost[0], cost[1])

    def close(self) -> None:
        """Account the phase's wall time (a replay counts once, on its
        forward)."""
        seconds = self._clock() - self._start
        count = int(self._phase == "forward")
        for sink in self._sinks:
            sink.record_replay(seconds, count)
        if count:
            _bump("profiled_replays")


class ExecutionPlan:
    """A :class:`PlanStructure` bound to leaves and buffers.

    ``forward()`` then ``backward()`` replay one training step as flat
    loops over numpy arrays.  Parameter leaves are re-read through their
    ``Tensor`` (``load_state_dict`` replaces ``.data``), constants are
    captured array references, and per-slot gradient references are
    reused across steps.

    Binding runs the pass pipeline (:mod:`repro.nn.passes`) under the
    dtype of the backend active at compile time: arena-managed steps
    write into preallocated buffers (materialised lazily on the first
    replay, then reused forever), so steady-state replay allocates
    nothing for the outputs the plan manages.  A step that raises
    releases the plan's activations before the exception propagates.
    """

    __slots__ = ("structure", "metas", "memory_plan",
                 "_params", "_consts", "_values",
                 "_saved", "_grads", "_unbroadcast", "_seed", "_dtype",
                 "_arena", "_profile", "_costs")

    def __init__(self, structure: PlanStructure, leaves: List,
                 metas: List[Optional[dict]]) -> None:
        from .tensor import unbroadcast

        self.structure = structure
        self.metas = metas
        self._dtype = active_dtype()
        self._unbroadcast = unbroadcast
        self._params = [
            (structure.param_slots[j], leaf)
            for j, leaf in enumerate(
                [l for l in leaves if l.requires_grad]
            )
        ]
        self._consts = [
            (slot, leaf.data)
            for slot, leaf in zip(
                structure.const_slots, [l for l in leaves if not l.requires_grad]
            )
        ]
        self._values: List[Optional[np.ndarray]] = [None] * structure.num_slots
        for slot, data in self._consts:
            self._values[slot] = data
        self._saved: List[object] = [None] * len(structure.steps)
        self._grads: List[Optional[np.ndarray]] = [None] * structure.num_slots
        self._seed = np.ones(structure.slot_shapes[structure.root_slot],
                             dtype=self._dtype)
        self.memory_plan = _passes.run_pipeline(structure, KERNELS,
                                                self._dtype)
        self._arena: Optional[List[Optional[np.ndarray]]] = None
        _bump("arena_planned_bytes", self.memory_plan.arena_bytes)
        # profiling plane: this plan's own rows (what ``profile_report``
        # shows) and the static per-step cost estimates, both written
        # only by a replay observer.
        self._profile = KernelProfiler()
        self._costs: Dict[str, List[Optional[Tuple[float, float]]]] = {
            phase: [None] * len(structure.steps)
            for phase in ("forward", "backward")
        }

    # ------------------------------------------------------------------
    def check_bindings(self) -> bool:
        """Whether the bound leaves still match the recorded shapes."""
        shapes = self.structure.slot_shapes
        for slot, param in self._params:
            if param.data.shape != shapes[slot]:
                return False
        for slot, data in self._consts:
            if data.shape != shapes[slot]:
                return False
        return True

    # ------------------------------------------------------------------
    def _materialize_arena(self) -> List[Optional[np.ndarray]]:
        """Allocate the plan's arena buffers (once, on first replay)."""
        plan = self.memory_plan
        arena: List[Optional[np.ndarray]] = [
            np.empty(shape, dtype=self._dtype)
            for shape in plan.buffer_shapes
        ]
        self._arena = arena
        _bump("arena_buffers_allocated", len(arena))
        _bump("arena_bytes_allocated", plan.arena_bytes)
        return arena

    def _observer(self, phase: str) -> Optional[_ReplayObserver]:
        """A replay observer while a kernel profiler is installed."""
        profiler = _PROFILER[0]
        if profiler is None:
            return None
        return _ReplayObserver(self, profiler, phase)

    def forward(self) -> float:
        """Replay the forward schedule; returns the scalar loss.

        Arena-managed steps write into the plan's preallocated buffers,
        bit-for-bit what the allocating kernel computes (see
        :mod:`repro.nn.passes`).
        """
        values = self._values
        saved = self._saved
        steps = self.structure.steps
        metas = self.metas
        step_buffer = self.memory_plan.step_buffer
        arena = self._arena
        if arena is None:
            arena = self._materialize_arena()
        for slot, param in self._params:
            values[slot] = param.data
        observer = self._observer("forward")
        try:
            for i, step in enumerate(steps):
                arrays = tuple(values[j] for j in step.ins)
                buf = step_buffer[i]
                if buf >= 0:
                    out, sv = step.forward_out(metas[i], arrays, arena[buf])
                else:
                    out, sv = step.forward(metas[i], arrays)
                values[step.out] = out
                saved[i] = sv
                if observer is not None:
                    observer.step(i)
        except BaseException:
            self._release()
            raise
        finally:
            if observer is not None:
                observer.close()
        return float(values[self.structure.root_slot])

    def backward(self) -> None:
        """Replay the VJP schedule over per-slot gradient references.

        Accumulation mirrors the eager walk exactly — gradients are
        passed by reference and combined with out-of-place additions in
        the same order — so planned and eager parameter gradients are
        bit-for-bit identical.  An observed step's measurement covers
        its VJP call *plus* the unbroadcast/accumulate work its
        gradients trigger — the true cost of executing that op's
        backward.
        """
        structure = self.structure
        values = self._values
        grads = self._grads
        needs = structure.needs_grad
        shapes = structure.slot_shapes
        unbroadcast = self._unbroadcast
        for i in range(structure.num_slots):
            grads[i] = None
        grads[structure.root_slot] = self._seed
        steps = structure.steps
        metas = self.metas
        saved = self._saved
        observer = self._observer("backward")
        try:
            for i in range(len(steps) - 1, -1, -1):
                step = steps[i]
                grad = grads[step.out]
                if grad is None:
                    continue
                grads[step.out] = None
                arrays = tuple(values[j] for j in step.ins)
                pgrads = step.vjp(metas[i], grad, arrays, values[step.out],
                                  saved[i])
                for j, pgrad in zip(step.ins, pgrads):
                    if pgrad is None or not needs[j]:
                        continue
                    pgrad = unbroadcast(
                        np.asarray(pgrad, dtype=self._dtype), shapes[j]
                    )
                    if grads[j] is None:
                        grads[j] = pgrad
                    else:
                        grads[j] = grads[j] + pgrad
                if observer is not None:
                    observer.step(i)
            for slot, param in self._params:
                pgrad = grads[slot]
                grads[slot] = None
                if pgrad is None:
                    continue
                if param.grad is None:
                    param.grad = pgrad.copy()
                else:
                    param.grad = param.grad + pgrad
        finally:
            if observer is not None:
                observer.close()
            self._release()

    def _release(self) -> None:
        """Drop activations / saved forward buffers after a step.

        Trainers hold one plan per train batch for their lifetime;
        without this, every *cold* plan would pin a full set of
        activations (including im2col buffers) between steps — also
        when a kernel raised mid-replay.  Constant leaf bindings are
        kept — they are references to long-lived batch arrays, not
        copies.  Arena buffers are *not* released: they live in
        ``self._arena`` for the plan's lifetime (that is the fixed
        preallocated footprint); only unmanaged outputs, saved tensors,
        and gradients are dropped here.
        """
        values = self._values
        grads = self._grads
        for step in self.structure.steps:
            values[step.out] = None
            grads[step.out] = None
        for slot, _ in self._params:
            values[slot] = None
            grads[slot] = None
        saved = self._saved
        for i in range(len(saved)):
            saved[i] = None


# ======================================================================
# compiled losses
# ======================================================================
class CompiledLoss:
    """Trace-once / replay-many wrapper around a scalar loss closure.

    ``fn`` must build the loss from stable inputs (same batch arrays,
    same masks) on every call; parameters may change freely.  The first
    ``run()`` traces eagerly and compiles a plan; later runs replay it.
    If the trace is dynamic (dropout, value-dependent constants) or
    compilation fails, every run transparently falls back to fused-eager
    execution — correctness never depends on replayability.

    After ``run()``, ``param.grad`` is populated exactly as
    ``loss.backward()`` would have (accumulating into pre-existing
    gradients), and the scalar loss value is returned.
    """

    __slots__ = ("_fn", "_plan", "_dynamic", "_reason")

    def __init__(self, fn: Callable[[], object]) -> None:
        self._fn = fn
        self._plan: Optional[ExecutionPlan] = None
        self._dynamic = False
        self._reason = ""

    @property
    def fallback_reason(self) -> str:
        """Why the loss is running eagerly ('' when planned)."""
        return self._reason

    def profile_report(self, top: Optional[int] = None) -> Dict[str, object]:
        """Per-kernel profile of this loss's observed plan replays.

        Populated while a :class:`repro.obs.profiling.KernelProfiler`
        is installed (see :func:`repro.obs.profiling.profile_kernels`).
        Returns the :meth:`KernelProfiler.report
        <repro.obs.profiling.KernelProfiler.report>` schema — kernels
        sorted by cumulative time with calls/seconds/flops/bytes,
        totals, and ``coverage`` (fraction of measured replay wall time
        the kernel timings account for) — plus ``planned`` and
        ``fallback_reason`` for losses that never compiled.  Planned
        losses additionally report the pass pipeline's memory plan:
        ``arena`` (the :meth:`MemoryPlan.report
        <repro.nn.passes.MemoryPlan.report>` summary — arena bytes,
        buffer count, reuse) and a per-kernel ``arena_bytes`` column
        attributing each forward kernel's arena-managed output bytes.
        """
        plan = self._plan
        profile = plan._profile if plan is not None else KernelProfiler()
        report = profile.report(top)
        report["planned"] = plan is not None
        report["fallback_reason"] = self._reason
        if plan is not None:
            memory_plan = plan.memory_plan
            report["arena"] = memory_plan.report()
            op_bytes = memory_plan.op_bytes
            for row in report["kernels"]:
                row["arena_bytes"] = (
                    op_bytes.get(row["op"], 0)
                    if row["phase"] == "forward" else 0
                )
        else:
            report["arena"] = None
        return report

    def _eager(self) -> float:
        loss = self._fn()
        loss.backward()
        return float(loss.data)

    def run(self) -> float:
        """Execute one step; returns the loss, populates ``.grad``."""
        if self._dynamic or not fused_enabled():
            _bump("compiled_eager_steps")
            with _obs_span("engine.step"):
                return self._eager()
        plan = self._plan
        if plan is not None:
            if plan.check_bindings():
                with _obs_span("engine.step"):
                    loss = plan.forward()
                    plan.backward()
                _bump("plan_replays")
                return loss
            # Shapes moved under us: retrace next run.
            self._plan = None
            _bump("plan_rebinds")
        with _obs_span("engine.step"):
            with _obs_span("engine.compile"):
                with trace() as tape:
                    loss = self._fn()
                try:
                    self._plan = compile_plan(loss, tape)
                except PlanError as error:
                    self._dynamic = True
                    self._reason = str(error)
                    _bump("plan_fallbacks")
            loss.backward()
        return float(loss.data)
