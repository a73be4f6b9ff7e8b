"""Gather / scatter kernels: ``getitem``, ``gather_rows`` and the
segment primitives of message passing (``segment_sum``,
``segment_max_gather``); every scatter-add goes through
:func:`_scatter_rows`."""

from __future__ import annotations

import numpy as np

from .registry import register_kernel


def _normalised(index: np.ndarray, num_rows: int) -> np.ndarray:
    """``index`` with negative entries wrapped, as numpy indexing does
    (``bincount`` and the CSR constructor reject negatives)."""
    if index.min() < 0:
        return index + (index < 0) * num_rows
    return index


def _scatter_rows(index: np.ndarray, values: np.ndarray, num_rows: int,
                  meta: dict) -> np.ndarray:
    """Scatter-add ``values`` rows into ``num_rows`` buckets.

    Every bucket sums its rows in scan (edge) order, exactly like the
    unbuffered ``np.add.at``, so the result is bit-identical to it:

    * **No memo in** ``meta`` (every eager graph, every serving
      forward): one ``np.bincount`` over a flattened composite index
      ``row * row_size + column`` — a tight C accumulation loop that
      beats ``np.add.at`` ~4x at this repo's edge counts (a sort +
      ``reduceat`` pipeline was measured and rejected: it
      reassociates).  The ``E * row_size`` composite index is built for
      the call and dropped.
    * **A plan step** was handed, when its plan was bound
      (:func:`_bind_scatter`), the ``(num_rows, E)`` 0/1 CSR matrix of
      its index in ``meta`` — O(E) however wide the rows — and the
      scatter is its product with the ``(E, row_size)`` values, whose
      per-row sums run over the columns, i.e. the edges, in order.
    """
    out_shape = (num_rows,) + values.shape[1:]
    if index.size == 0:
        return np.zeros(out_shape, dtype=values.dtype)
    memo = meta.get("_scatter")
    if memo is not None:
        summed = memo @ values.reshape(index.shape[0], -1)
        return summed.astype(values.dtype, copy=False).reshape(out_shape)
    index = _normalised(index, num_rows)
    if values.ndim == 1:
        # bincount accumulates in float64; cast back to the operands'
        # dtype (a no-op, copy-free, for the engine's float64).
        return np.bincount(
            index, weights=values, minlength=num_rows
        ).astype(values.dtype, copy=False)
    flat = values.reshape(index.shape[0], -1)
    d = flat.shape[1]
    composite = (index[:, None] * d + np.arange(d)).ravel()
    summed = np.bincount(composite, weights=flat.ravel(),
                         minlength=num_rows * d)
    return summed.astype(values.dtype, copy=False).reshape(out_shape)


def _bind_scatter(meta: dict, index: np.ndarray, num_rows: int,
                  values_shape: tuple) -> None:
    """Memoise in ``meta`` the ``(num_rows, E)`` 0/1 CSR matrix that
    :func:`_scatter_rows` multiplies by ``values_shape``-shaped rows.

    Called while a plan is bound; vectors (``bincount`` is already
    O(E)) and empty indices keep no memo.
    """
    if len(values_shape) < 2 or index.size == 0:
        return
    # Imported here (≈180 ms, once per process): only plan binding
    # reaches this, never module import or serving.
    from scipy.sparse import csr_matrix

    index = _normalised(index, num_rows)
    edges = index.size
    meta["_scatter"] = csr_matrix(
        (np.ones(edges), (index, np.arange(edges))),
        shape=(num_rows, edges))


def _fw_getitem(meta, arrays, out=None):
    return arrays[0][meta["index"]], None


def _is_row_index(index) -> bool:
    """A 1-D integer array: the ``getitem`` VJP is then a row scatter."""
    return (isinstance(index, np.ndarray) and index.ndim == 1
            and np.issubdtype(index.dtype, np.integer))


def _bw_getitem(meta, grad, arrays, out, saved):
    index = meta["index"]
    if isinstance(index, np.ndarray) and index.dtype == np.bool_:
        # A boolean mask selects each row at most once.
        full = np.zeros(meta["in_shape"], dtype=np.asarray(grad).dtype)
        full[index] = grad
        return (full,)
    if _is_row_index(index):
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


def _bind_row_scatter(meta, in_shapes, out_shape, backward):
    """Bind hook of ``getitem`` and ``gather_rows``: a row-index VJP
    scatters ``out_shape``-shaped rows back into the input's rows."""
    if backward and _is_row_index(meta["index"]):
        _bind_scatter(meta, meta["index"], meta["in_shape"][0], out_shape)


def _fw_gather_rows(meta, arrays, out=None):
    return np.take(arrays[0], meta["index"], axis=0, out=out), None


def _bw_gather_rows(meta, grad, arrays, out, saved):
    return (_scatter_rows(meta["index"], np.asarray(grad),
                          meta["in_shape"][0], meta),)


def _fw_segment_sum(meta, arrays, out=None):
    # Not an arena kernel: bincount allocates its result internally, so
    # writing through ``out`` would only add a copy.
    (a,) = arrays
    return _scatter_rows(meta["ids"], a, meta["num_segments"], meta), None


def _bw_segment_sum(meta, grad, arrays, out, saved):
    return (grad[meta["ids"]],)


def _bind_segment_sum(meta, in_shapes, out_shape, backward):
    _bind_scatter(meta, meta["ids"], meta["num_segments"], in_shapes[0])


def _fw_segment_max_gather(meta, arrays, out=None):
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
    return np.take(seg_max, ids, axis=0, out=out), None


def _bw_segment_max_gather(meta, grad, arrays, out, saved):
    return (None,)


register_kernel("getitem", _fw_getitem, _bw_getitem, vjp_uses=(),
                bind=_bind_row_scatter)
register_kernel("gather_rows", _fw_gather_rows, _bw_gather_rows,
                arena=True, vjp_uses=(), bind=_bind_row_scatter)
register_kernel("segment_sum", _fw_segment_sum, _bw_segment_sum,
                vjp_uses=(), bind=_bind_segment_sum)
register_kernel("segment_max_gather", _fw_segment_max_gather,
                _bw_segment_max_gather, arena=True, vjp_uses=())
