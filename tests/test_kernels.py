"""The kernel contract, checked for every name in the registry.

``repro.nn.kernels`` promises four things per :class:`OpKernel`, and
the planner / executor rely on each without re-checking it:

(a) **one forward** — ``forward(meta, arrays, out=buf)`` is bitwise
    ``forward(meta, arrays)``; an ``arena`` kernel lands the result in
    ``buf`` and returns it (vector operands included), any other kernel
    ignores ``out``; no input array is written;
(b) **``vjp_uses`` is truthful** — liveness recycles whatever a VJP does
    not declare, so the VJP fed NaN-filled stand-ins for every
    undeclared category must return the same bits;
(c) **kernel == oracle** — every kernel with an oracle in
    ``tests/kernel_oracles.py`` (a textbook body of the same math, or
    the composition a fused kernel stands for) agrees with it to 1e-12
    (float64), forward and gradients;
(d) **``saved`` never copies an operand** — it is ``None`` or smaller
    than the largest input, because the arena cannot plan it.

The engine computes in float64 only, but a kernel is a plain array
function that computes in its operands' dtype; the float32 column
checks that no kernel up-casts (and that (a)-(d) do not depend on the
dtype), which is also what ``tests/test_docs.py``'s dtype lint guards.

A kernel registered without a case generator here fails the suite.

Section (e) is particular to the conv kernels, which lay their im2col
columns out one block of batch rows at a time: it holds them to their
pre-blocking bodies (``kernel_oracles.UNBLOCKED``) bitwise at the
models' aligned shapes and to 1e-12 elsewhere, checks that a row's bits
do not depend on its batch, and bounds their temporaries.
"""

import tracemalloc

import numpy as np
import pytest

from helpers import forall
from kernel_oracles import ORACLES, UNBLOCKED, use_oracles

from repro.nn import engine
from repro.nn import functional as F
from repro.nn.kernels import conv as conv_kernels
from repro.nn.tensor import unbroadcast

pytestmark = pytest.mark.engine

DTYPES = (np.float64, np.float32)
#: (c)'s tolerance for float32 operands: ~1e-7 rounding per operation
#: over one kernel, with room to spare.
FLOAT32_TOLERANCE = 5e-4


# ----------------------------------------------------------------------
# case generators: name -> (rng, dtype) -> (meta, arrays)
# ----------------------------------------------------------------------
def _arr(rng, dtype, *shape):
    return rng.normal(size=shape).astype(dtype)


def _shape(rng, lo=1, hi=3):
    return tuple(int(rng.integers(1, 5))
                 for _ in range(int(rng.integers(lo, hi + 1))))


def _pick(rng, options):
    return options[int(rng.integers(0, len(options)))]


def _broadcast_pair(rng, dtype):
    """Two operands: equal shapes, a trailing-axis vector (bias), a
    row-broadcast ``(E, 1, ..)`` column (per-edge attention) or a
    scalar — on either side."""
    shape = _shape(rng)
    other = _pick(rng, [shape, shape[-1:],
                        (shape[0],) + (1,) * (len(shape) - 1), ()])
    pair = [_arr(rng, dtype, *shape), _arr(rng, dtype, *other)]
    if rng.random() < 0.5:
        pair.reverse()
    return pair


def _needs(rng):
    return {"needs": (bool(rng.integers(0, 2)), bool(rng.integers(0, 2)))}


def _case_add(rng, dtype):
    return None, tuple(_broadcast_pair(rng, dtype))


def _case_mul(rng, dtype):
    if rng.random() < 0.5:
        # Per-edge weights scaling whole messages, ``(E, ..) * (E, 1, ..)``:
        # the operand gradient ``mul`` folds into one row-dot pass.
        shape = (int(rng.integers(1, 5)),) + _shape(rng)
        pair = [_arr(rng, dtype, *shape),
                _arr(rng, dtype, shape[0], *(1,) * (len(shape) - 1))]
        if rng.random() < 0.5:
            pair.reverse()
        return _needs(rng), tuple(pair)
    return _needs(rng), tuple(_broadcast_pair(rng, dtype))


def _case_div(rng, dtype):
    a, b = _broadcast_pair(rng, dtype)
    b = (np.sign(b) * (np.abs(b) + 0.5)).astype(dtype)
    return _needs(rng), (a, b)


def _case_power(rng, dtype):
    a = (np.abs(_arr(rng, dtype, *_shape(rng))) + 0.5).astype(dtype)
    return {"exponent": _pick(rng, [2.0, 3.0, 0.5, -1.0])}, (a,)


def _matmul_operands(rng, dtype):
    """2-D, batched against one shared weight, batched against batched,
    and the three vector-operand forms."""
    m, k, n, b = (int(rng.integers(1, 5)) for _ in range(4))
    a_shape, b_shape = _pick(rng, [
        ((m, k), (k, n)), ((b, m, k), (k, n)), ((b, m, k), (b, k, n)),
        ((k,), (k, n)), ((m, k), (k,)), ((k,), (k,)),
    ])
    return _arr(rng, dtype, *a_shape), _arr(rng, dtype, *b_shape)


def _case_matmul(rng, dtype):
    return None, _matmul_operands(rng, dtype)


def _case_linear(rng, dtype):
    x, w = _matmul_operands(rng, dtype)
    if w.ndim == 3:
        w = w[0]
    bias_shape = w.shape[1:] if rng.random() < 0.8 else ()
    return {}, (x, w, _arr(rng, dtype, *bias_shape))


def _case_reshape(rng, dtype):
    a = _arr(rng, dtype, *_shape(rng, 2, 3))
    shape = _pick(rng, [(-1,), (a.shape[0], -1), a.shape[::-1]])
    return {"shape": shape, "old_shape": a.shape}, (a,)


def _case_transpose(rng, dtype):
    a = _arr(rng, dtype, *_shape(rng, 2, 3))
    axes = tuple(int(i) for i in rng.permutation(a.ndim))
    inverse = tuple(int(i) for i in np.argsort(axes))
    return {"axes": axes, "inverse": inverse}, (a,)


def _reduction_meta(rng, shape):
    ndim = len(shape)
    axis = _pick(rng, [None, int(rng.integers(-ndim, ndim)),
                       tuple(range(ndim))[: int(rng.integers(1, ndim + 1))]])
    return {"axis": axis, "keepdims": bool(rng.integers(0, 2)),
            "in_shape": shape}


def _case_sum(rng, dtype):
    a = _arr(rng, dtype, *_shape(rng))
    return _reduction_meta(rng, a.shape), (a,)


def _row_index(rng, rows):
    """Integer row index with duplicates, negatives and the empty case."""
    size = int(rng.integers(0, 9))
    return rng.integers(-rows, rows, size=size).astype(np.int64)


def _case_getitem(rng, dtype):
    a = _arr(rng, dtype, *_shape(rng, 2, 3))
    rows = a.shape[0]
    index = _pick(rng, [
        int(rng.integers(-rows, rows)),
        slice(0, rows, 2),
        (slice(None), slice(0, a.shape[1])),
        _row_index(rng, rows),
        rng.random(rows) < 0.5,
    ])
    return {"index": index, "in_shape": a.shape}, (a,)


def _case_gather_rows(rng, dtype):
    a = _arr(rng, dtype, *_shape(rng))
    return ({"index": _row_index(rng, a.shape[0]), "in_shape": a.shape},
            (a,))


def _case_concat(rng, dtype):
    base = _shape(rng, 2, 3)
    axis = int(rng.integers(-len(base), len(base)))
    parts = []
    for _ in range(int(rng.integers(2, 4))):
        shape = list(base)
        shape[axis] = int(rng.integers(1, 4))
        parts.append(_arr(rng, dtype, *shape))
    splits = np.cumsum([p.shape[axis] for p in parts])[:-1]
    return {"axis": axis, "splits": splits}, tuple(parts)


def _case_stack(rng, dtype):
    shape = _shape(rng)
    parts = tuple(_arr(rng, dtype, *shape)
                  for _ in range(int(rng.integers(2, 4))))
    return {"axis": int(rng.integers(0, len(shape) + 1))}, parts


def _case_pad_time(rng, dtype):
    a = _arr(rng, dtype, *_shape(rng, 2, 3))
    return ({"left": int(rng.integers(0, 4)), "right": int(rng.integers(0, 4)),
             "t": a.shape[-2]}, (a,))


def _case_unary(rng, dtype):
    a = _arr(rng, dtype, *_shape(rng))
    a.flat[0] = 0.0  # the kink: relu's -0.0, abs' subgradient, log's clamp
    return None, (a,)


def _case_sqrt(rng, dtype):
    return None, ((np.abs(_arr(rng, dtype, *_shape(rng))) + 0.1).astype(dtype),)


def _case_leaky_relu(rng, dtype):
    return {"negative_slope": 0.2}, _case_unary(rng, dtype)[1]


def _case_softmax(rng, dtype):
    a = _arr(rng, dtype, *_shape(rng, 2, 3))
    axis = int(rng.integers(-a.ndim, a.ndim))
    if rng.random() < 0.5:
        np.moveaxis(a, axis, -1)[(0,) * (a.ndim - 1)] = -np.inf  # dead row
    return {"axis": axis}, (a,)


def _case_masked_softmax(rng, dtype):
    t = int(rng.integers(1, 6))
    mask = _pick(rng, [F.causal_mask, F.log_sparse_mask])(t)
    if rng.random() < 0.5:
        mask[int(rng.integers(0, t))] = -np.inf  # a fully masked row
    a = _arr(rng, dtype, int(rng.integers(1, 4)), t, t)
    return {"mask": mask, "axis": -1}, (a,)


def _case_scaled_masked_softmax(rng, dtype):
    meta, arrays = _case_masked_softmax(rng, dtype)
    meta["scale"] = float(rng.uniform(0.1, 2.0))
    return meta, arrays


def _segments(rng):
    num_segments = int(rng.integers(1, 5))
    ids = rng.integers(0, num_segments, size=int(rng.integers(0, 9)))
    return ids.astype(np.int64), num_segments


def _case_segment_sum(rng, dtype):
    ids, num_segments = _segments(rng)
    a = _arr(rng, dtype, ids.size, *_shape(rng, 0, 2))
    return {"ids": ids, "num_segments": num_segments}, (a,)


def _case_segment_max_gather(rng, dtype):
    ids, num_segments = _segments(rng)
    scores = _arr(rng, dtype, ids.size)
    scores[ids == 0] = -np.inf  # a fully suppressed segment
    return {"ids": ids, "num_segments": num_segments}, (scores,)


def _case_conv1d(rng, dtype):
    b, t, c_in, c_out = (int(rng.integers(1, 5)) for _ in range(4))
    width = _pick(rng, [1, int(rng.integers(2, 5))])
    padding = _pick(rng, ["causal", "same", "valid"])
    if padding == "valid":
        t += width - 1
    left = {"causal": width - 1, "same": (width - 1) // 2, "valid": 0}[padding]
    right = {"causal": 0, "same": width - 1 - left, "valid": 0}[padding]
    arrays = [_arr(rng, dtype, b, t, c_in),
              _arr(rng, dtype, width, c_in, c_out)]
    if rng.random() < 0.5:
        arrays.append(_arr(rng, dtype, c_out))
    return {"left": left, "right": right}, tuple(arrays)


def _case_multi_conv1d(rng, dtype):
    b, t, c_in = (int(rng.integers(1, 5)) for _ in range(3))
    scales = int(rng.integers(1, 4))
    c_outs = [int(rng.integers(1, 4)) for _ in range(scales)]
    weights = [_arr(rng, dtype, int(rng.integers(1, 5)), c_in, c)
               for c in c_outs]
    bias = bool(rng.integers(0, 2))
    biases = [_arr(rng, dtype, c) for c in c_outs] if bias else []
    return ({"num_scales": scales, "bias": bias},
            (_arr(rng, dtype, b, t, c_in), *weights, *biases))


CASES = {
    "add": _case_add, "mul": _case_mul, "div": _case_div,
    "power": _case_power, "matmul": _case_matmul,
    "reshape": _case_reshape, "transpose": _case_transpose,
    "sum": _case_sum,
    "getitem": _case_getitem, "gather_rows": _case_gather_rows,
    "concat": _case_concat, "stack": _case_stack,
    "pad_time": _case_pad_time,
    "exp": _case_unary, "log": _case_unary, "abs": _case_unary,
    "relu": _case_unary, "sigmoid": _case_unary, "tanh": _case_unary,
    "sqrt": _case_sqrt, "leaky_relu": _case_leaky_relu,
    "softmax": _case_softmax, "masked_softmax": _case_masked_softmax,
    "scaled_masked_softmax": _case_scaled_masked_softmax,
    "segment_sum": _case_segment_sum,
    "segment_max_gather": _case_segment_max_gather,
    "conv1d": _case_conv1d, "multi_conv1d": _case_multi_conv1d,
    "linear": _case_linear,
}


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _bits(value):
    """Hashable exact image of an array / tuple / ``None`` result."""
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    array = np.asarray(value)
    return (array.dtype.str, array.shape,
            np.ascontiguousarray(array).tobytes())


def _poison(value):
    """A same-shaped stand-in holding nothing the original held: what a
    recycled arena buffer looks like to a VJP that still reads it."""
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        return tuple(_poison(v) for v in value)
    array = np.asarray(value)
    if array.dtype == np.bool_:
        return ~array
    return np.full_like(array, np.nan)


def _close(a, b, tol):
    if a is None or b is None:
        assert a is None and b is None
        return
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape, (a.shape, b.shape)
    if a.size:
        error = np.max(np.abs(a - b) / (np.abs(b) + 1.0))
        assert error <= tol, f"kernel vs oracle differ by {error}"


def _run(name, dtype, prop, trials=25):
    assert name in CASES, (
        f"kernel {name!r} has no case generator in tests/test_kernels.py"
    )
    kernel = engine.KERNELS[name]
    with np.errstate(all="ignore"):  # -inf rows and NaN stand-ins on purpose
        forall(lambda rng: CASES[name](rng, dtype),
               lambda case: prop(kernel, *case), trials=trials,
               seed=sum(map(ord, name)), name=f"{name}[{np.dtype(dtype)}]")


KERNEL_NAMES = sorted(engine.KERNELS)


def test_every_kernel_has_a_case_generator_and_none_is_stale():
    assert set(CASES) == set(engine.KERNELS)
    assert len(KERNEL_NAMES) >= 29, "registry scan looks vacuous"


# ----------------------------------------------------------------------
# (a) one forward: out= is bitwise the allocating call
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_forward_into_a_buffer_is_bitwise_the_allocating_forward(name, dtype):
    def prop(kernel, meta, arrays):
        before = _bits(arrays)
        fresh, fresh_saved = kernel.forward(meta, arrays)
        assert np.asarray(fresh).dtype == dtype, "kernel left the dtype"
        buf = np.full(np.shape(fresh), np.nan, dtype=dtype)
        landed, landed_saved = kernel.forward(meta, arrays, out=buf)
        assert _bits(landed) == _bits(fresh), "out= changed the bits"
        assert _bits(landed_saved) == _bits(fresh_saved)
        assert _bits(arrays) == before, "forward wrote to an input"
        if kernel.arena:
            assert landed is buf, "arena kernel did not return its buffer"
        else:
            assert landed is not buf
        if not kernel.arena:
            assert np.isnan(buf).all(), "non-arena kernel wrote to out"

    _run(name, dtype, prop)


# ----------------------------------------------------------------------
# (b) vjp_uses is truthful
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_vjp_reads_only_what_vjp_uses_declares(name, dtype):
    def prop(kernel, meta, arrays):
        out, saved = kernel.forward(meta, arrays)
        grad = _arr(np.random.default_rng(0), dtype, *np.shape(out))
        honest = kernel.vjp(meta, grad, arrays, out, saved)
        assert len(honest) == len(arrays), "one gradient slot per input"
        uses = kernel.vjp_uses
        starved = kernel.vjp(
            meta, grad,
            arrays if "inputs" in uses else _poison(arrays),
            out if "output" in uses else _poison(out),
            saved if "saved" in uses else _poison(saved),
        )
        assert _bits(starved) == _bits(honest), (
            f"VJP read something outside vjp_uses={uses}"
        )

    _run(name, dtype, prop)


# ----------------------------------------------------------------------
# (c) kernel == oracle
# ----------------------------------------------------------------------
REFERENCED = sorted(ORACLES)


def test_reference_variants_were_found():
    """Every optimisation that once had a second body in ``repro.nn``
    (a reference variant, a mode branch, a record-time rewrite) keeps
    that body here, as the oracle of the one kernel that remains."""
    assert set(REFERENCED) == {
        "conv1d", "masked_softmax", "segment_sum", "gather_rows", "getitem",
        "matmul", "mul", "multi_conv1d", "scaled_masked_softmax", "linear",
    }


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("name", REFERENCED)
def test_optimized_matches_reference_forward_and_vjp(name, dtype):
    tol = 1e-12 if dtype == np.float64 else FLOAT32_TOLERANCE
    oracle = ORACLES[name]

    def prop(kernel, meta, arrays):
        out, saved = kernel.forward(meta, arrays)
        ref_out, ref_saved = oracle.forward(meta, arrays)
        _close(out, ref_out, tol)
        grad = _arr(np.random.default_rng(0), dtype, *np.shape(out))
        grads = kernel.vjp(meta, grad, arrays, out, saved)
        ref_grads = oracle.vjp(meta, grad, arrays, ref_out, ref_saved)
        assert len(grads) == len(ref_grads) == len(arrays)
        # The executor unbroadcasts every gradient to its operand.
        for got, want, operand in zip(grads, ref_grads, arrays):
            if got is not None and want is not None:
                got = unbroadcast(np.asarray(got), operand.shape)
                want = unbroadcast(np.asarray(want), operand.shape)
            _close(got, want, tol)

    _run(name, dtype, prop)


def test_use_oracles_swaps_the_registry_and_restores_it():
    registry = dict(engine.KERNELS)
    with use_oracles():
        assert all(engine.KERNELS[name] is ORACLES[name] for name in ORACLES)
        assert engine.KERNELS.keys() == registry.keys()
    assert engine.KERNELS == registry
    with pytest.raises(RuntimeError):
        with use_oracles():
            raise RuntimeError("a failing block")
    assert engine.KERNELS == registry


# ----------------------------------------------------------------------
# (d) saved never copies an operand
# ----------------------------------------------------------------------
def _nbytes(value):
    if value is None:
        return 0
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return np.asarray(value).nbytes


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_saved_never_copies_an_operand(name, dtype):
    """The arena plans inputs and outputs, not ``saved``: an
    operand-sized ``saved`` (im2col columns, a clamped input) would live
    outside it on every step, so the VJP recomputes it from ``arrays``."""
    def prop(kernel, meta, arrays):
        _, saved = kernel.forward(meta, arrays)
        largest = max(np.asarray(a).nbytes for a in arrays)
        assert saved is None or _nbytes(saved) < largest, (
            f"saved holds {_nbytes(saved)} bytes against a largest "
            f"input of {largest}")

    _run(name, dtype, prop)


# ----------------------------------------------------------------------
# (e) blocked im2col: the unblocked bits, batch-invariant rows, bounded
#     temporaries
# ----------------------------------------------------------------------
#: Channel counts of the blocked-conv checks.  Every conv of the repo's
#: models that lays out columns (width >= 2) has 8 or 16 input and
#: output channels at the sizes the models are run with; width-1 convs
#: run one GEMM over the input's own view, as before, at any width.  A
#: GEMM whose output width leaves a partial 8-double SIMD vector, or
#: that has one row, may round differently with its row count under
#: OpenBLAS; at such shapes the blocked conv meets the unblocked body
#: to contract (c)'s 1e-12, not bitwise (CHANGES.md records the counts).
ALIGNED_CHANNELS = (8, 16)
#: Channel counts a user may set that leave partial SIMD vectors.
UNALIGNED_CHANNELS = (3, 12)
PADDINGS = ("causal", "same", "valid")
#: ``(channels, (low, high) input length)`` of each kind of blocked-conv
#: case: the models' aligned shapes (held bitwise), then unaligned
#: channels and single-step series (held to 1e-12).
SHAPES = {
    "aligned": (ALIGNED_CHANNELS, (2, 31)),
    "unaligned": (UNALIGNED_CHANNELS, (1, 31)),
    "one step": (ALIGNED_CHANNELS, (1, 2)),
}


def _block_rows(out_t, width, channels):
    """``(most batch rows laid out whole, rows per block beyond that)``
    of ``conv._conv_gemm`` (float64 columns)."""
    row = out_t * width * channels * 8
    return (conv_kernels._WHOLE_BYTES // row,
            max(1, conv_kernels._BLOCK_BYTES // row))


def _batch(rng, blocks, *gemms):
    """A batch size laid out whole by every GEMM that blocks, or
    spanning several blocks of each with a remainder."""
    whole = [w for w, _ in gemms]
    if blocks == "one":
        return int(rng.integers(1, min(whole) + 1))
    per_block = [rows for _, rows in gemms]
    b = max(whole) + 1 + int(rng.integers(0, max(per_block)))
    return b + (b % min(per_block) == 0)


def _conv1d_blocked(rng, width, padding, bias, blocks, channels, times):
    c_in, c_out = (_pick(rng, channels) for _ in range(2))
    t = int(rng.integers(*times)) + (width - 1) * (padding == "valid")
    left = {"causal": width - 1, "same": (width - 1) // 2, "valid": 0}[padding]
    right = {"causal": 0, "same": width - 1 - left, "valid": 0}[padding]
    out_t = t + left + right - width + 1
    b = _batch(rng, blocks, _block_rows(out_t, width, c_in),
               _block_rows(t, width, c_out))
    arrays = [_arr(rng, np.float64, b, t, c_in),
              _arr(rng, np.float64, width, c_in, c_out)]
    if bias:
        arrays.append(_arr(rng, np.float64, c_out))
    return {"left": left, "right": right}, tuple(arrays)


def _bank_blocked(rng, wmax, bias, blocks, channels, times):
    c_in = _pick(rng, channels)
    scales = _pick(rng, (1, 2, 4))
    widths = [wmax] + [int(rng.integers(1, wmax + 1))
                       for _ in range(scales - 1)]
    per_scale = max(channels) // scales
    t = int(rng.integers(*times))
    b = _batch(rng, blocks, _block_rows(t, wmax, c_in),
               _block_rows(t, wmax, per_scale * scales))
    weights = [_arr(rng, np.float64, w, c_in, per_scale) for w in widths]
    biases = [_arr(rng, np.float64, per_scale) for _ in widths] if bias else []
    return ({"num_scales": scales, "bias": bias},
            (_arr(rng, np.float64, b, t, c_in), *weights, *biases))


def _blocked_cases(name, blocks, shapes="aligned"):
    """Every width 1-8 (with every padding for ``conv1d``), with and
    without bias, one seeded shape each of the ``SHAPES`` kind."""
    channels, times = SHAPES[shapes]
    rng = np.random.default_rng(sum(map(ord, name + blocks + shapes)))
    if name == "conv1d":
        return [_conv1d_blocked(rng, width, padding, bias, blocks,
                                channels, times)
                for width in range(1, 9) for padding in PADDINGS
                for bias in (False, True)]
    return [_bank_blocked(rng, wmax, bias, blocks, channels, times)
            for wmax in range(1, 9) for bias in (False, True)]


def _against_unblocked(name, cases, same):
    """Run forward and VJP of each case through the kernel and its
    pre-blocking body in ``kernel_oracles.UNBLOCKED``; ``same(got,
    want, where)`` compares each output."""
    kernel, unblocked = engine.KERNELS[name], UNBLOCKED[name]
    for meta, arrays in cases:
        out, saved = kernel.forward(meta, arrays)
        ref_out, _ = unblocked.forward(meta, arrays)
        shapes = [a.shape for a in arrays]
        same(out, ref_out, ("forward", meta, shapes))
        grad = _arr(np.random.default_rng(0), np.float64, *out.shape)
        grads = kernel.vjp(meta, grad, arrays, out, saved)
        ref_grads = unblocked.vjp(meta, grad, arrays, ref_out, None)
        assert len(grads) == len(ref_grads) == len(arrays)
        for i, (got, want) in enumerate(zip(grads, ref_grads)):
            same(got, want, ("vjp", i, meta, shapes))


@pytest.mark.parametrize("blocks", ("one", "several"))
@pytest.mark.parametrize("name", ("conv1d", "multi_conv1d"))
def test_blocked_conv_is_bitwise_the_unblocked_body(name, blocks):
    """Laying the columns out one block of batch rows at a time (and
    padding the output gradient only by what the input rows read) keeps
    every output row's dot product, so forward and VJP keep their bits
    against the pre-blocking bodies in ``kernel_oracles.UNBLOCKED`` at
    the models' aligned shapes."""
    def same(got, want, where):
        assert _bits(got) == _bits(want), where

    _against_unblocked(name, _blocked_cases(name, blocks), same)


@pytest.mark.parametrize("shapes", ("unaligned", "one step"))
@pytest.mark.parametrize("blocks", ("one", "several"))
@pytest.mark.parametrize("name", ("conv1d", "multi_conv1d"))
def test_blocked_conv_meets_the_unblocked_body_elsewhere(name, blocks,
                                                         shapes):
    """Where a GEMM leaves a partial SIMD vector or has one row, BLAS
    may round a row differently with the GEMM's row count, so blocking
    keeps the unblocked values to 1e-12, not their bits."""
    def same(got, want, where):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                   err_msg=repr(where))

    _against_unblocked(name, _blocked_cases(name, blocks, shapes), same)


@pytest.mark.parametrize("name", ("conv1d", "multi_conv1d"))
def test_blocked_conv_rows_are_batch_invariant(name):
    """Row ``i`` of ``f(X)`` is bitwise ``f(X[i:i+1])`` with ``X``
    spanning several blocks: a block boundary moves no row's bits."""
    kernel = engine.KERNELS[name]
    rng = np.random.default_rng(3)
    for meta, arrays in _blocked_cases(name, "several"):
        x, params = arrays[0], arrays[1:]
        full, _ = kernel.forward(meta, arrays)
        b = x.shape[0]
        rows = {0, 1, b // 2, b - 2, b - 1}
        rows.update(int(i) for i in rng.integers(0, b, size=8))
        for i in sorted(rows):
            alone, _ = kernel.forward(meta, (x[i:i + 1], *params))
            assert _bits(alone[0]) == _bits(full[i]), (
                i, meta, [a.shape for a in arrays])


def _peak_temporaries(fn):
    """``(result, peak bytes fn allocated above what was live before)``;
    tracemalloc sees numpy's buffers."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - live


class TestBlockedConvMemory:
    """At B = 4000, T = 24, C = 16 the unblocked forward laid out
    109 MiB of temporaries for TEL's width-8 bank; blocked, a forward
    holds one block: its columns (at most ``_BLOCK_BYTES``) and the
    zero-padded rows they are cut from (fewer bytes than the columns)."""

    BLOCK = 2 * conv_kernels._BLOCK_BYTES

    @pytest.fixture(scope="class")
    def x(self):
        return _arr(np.random.default_rng(5), np.float64, 4000, 24, 16)

    def test_bank_forward_holds_one_block(self, x):
        rng = np.random.default_rng(6)
        ws = [_arr(rng, np.float64, w, 16, 4) for w in (2, 4, 6, 8)]
        meta = {"num_scales": 4, "bias": False}
        out = np.empty((4000, 24, 16))
        _, peak = _peak_temporaries(
            lambda: engine.KERNELS["multi_conv1d"].forward(meta, (x, *ws), out))
        assert peak <= self.BLOCK, f"{peak / 2 ** 20:.1f} MiB of temporaries"

    def test_conv1d_forward_holds_one_block(self, x):
        w = _arr(np.random.default_rng(7), np.float64, 3, 16, 16)
        meta = {"left": 2, "right": 0}
        out = np.empty((4000, 24, 16))
        _, peak = _peak_temporaries(
            lambda: engine.KERNELS["conv1d"].forward(meta, (x, w), out))
        assert peak <= self.BLOCK, f"{peak / 2 ** 20:.1f} MiB of temporaries"

    def test_input_gradient_holds_its_output_and_one_block(self, x):
        w = _arr(np.random.default_rng(8), np.float64, 8, 16, 16)
        gx, peak = _peak_temporaries(
            lambda: conv_kernels._conv_input_grad(x, w, 24, 7))
        assert gx.shape == (4000, 24, 16)
        assert peak <= gx.nbytes + self.BLOCK, (
            f"{(peak - gx.nbytes) / 2 ** 20:.1f} MiB beyond the output")


# ----------------------------------------------------------------------
# register_kernel refuses contracts it cannot honour
# ----------------------------------------------------------------------
class TestRegisterKernel:
    def test_unknown_vjp_uses_token_is_rejected(self):
        """``("input",)`` used to pass and mean "the VJP reads nothing":
        liveness would recycle the operand and backward read garbage."""
        tanh = engine.KERNELS["tanh"]
        registry = dict(engine.KERNELS)
        with pytest.raises(ValueError, match="vjp_uses"):
            engine.register_kernel("typo_tanh", tanh.forward, tanh.vjp,
                                   vjp_uses=("input",))
        assert engine.KERNELS == registry

    def test_duplicate_name_is_rejected(self):
        tanh = engine.KERNELS["tanh"]
        with pytest.raises(ValueError, match="already registered"):
            engine.register_kernel("tanh", tanh.forward, tanh.vjp)
        assert engine.KERNELS["tanh"] is tanh
