"""Reverse-mode automatic differentiation on top of numpy.

This module is the foundation of the whole reproduction: the paper was
implemented on Keras/AGL, neither of which is available offline, so every
model in this repository (Gaia and all eight baselines) is built on the
:class:`Tensor` type defined here.

Design notes
------------
* ``Tensor`` wraps a float64 ``numpy.ndarray`` (the engine's one
  dtype) together with an optional gradient buffer and the name of the
  registered kernel that produced it.  Ops are *data, not closures*:
  every primitive is an :class:`repro.nn.engine.OpKernel` — a pure
  ``forward(meta, arrays, out=None)`` / ``vjp(meta, grad, arrays, out,
  saved)`` pair — dispatched through :func:`_apply_op`, and
  :meth:`Tensor.backward` looks each node's VJP up in the registry by
  that name.  Because kernels are addressable by name, the same
  functions serve two executors: the eager path here (no ``out``: numpy
  allocates) and the planned replay executor in :mod:`repro.nn.engine`
  (record once → schedule → re-execute over raw arrays, handing each
  forward its arena buffer as ``out``).
* Scheduling: every tensor carries a monotonically increasing creation
  index (``_seq``).  Creation order is by construction a topological
  order of the recorded graph, so :meth:`Tensor.backward` simply visits
  the loss ancestors in decreasing ``_seq`` — no DFS re-sort — and the
  planned executor walks the same ancestors, sorted once at compile, in
  reverse.  Both walks process the same nodes in the same order with
  the same kernels, which makes eager and planned gradients
  **bit-for-bit identical**; that is the engine's equivalence guarantee
  (see ROADMAP, "execution engine").
* What is recorded is what the model code called: a fused op
  (``linear``, ``multi_conv1d``, ``scaled_masked_softmax``) is a kernel
  a layer calls through :mod:`repro.nn.functional`, never a rewrite of
  the ops being recorded, so recorded, ``no_grad`` and inference
  forwards compute the same bits.
* Broadcasting follows numpy semantics; gradients of broadcast operands
  are reduced back to the operand's shape by :func:`unbroadcast`, which
  right-aligns gradients whose rank already dropped below the operand's
  (size-1 axes in scalar-output chains) before reducing stretched axes.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import engine

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

__all__ = ["Tensor", "as_tensor", "unbroadcast", "no_grad", "is_grad_enabled"]


_GRAD_ENABLED = [True]

_SEQ = itertools.count()


def next_seq() -> int:
    """Draw a creation index: later tensors get larger ``_seq`` values
    (how :func:`repro.nn.engine.trace` marks its extent)."""
    return next(_SEQ)


class no_grad:
    """Context manager that disables graph recording.

    Use during evaluation / serving so that forward passes allocate no
    autograd metadata::

        with no_grad():
            preds = model(batch)
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        _GRAD_ENABLED[0] = self._prev


def is_grad_enabled() -> bool:
    """Return whether autograd recording is currently active."""
    return _GRAD_ENABLED[0]


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    Inverse of numpy broadcasting: sums over axes that were added or
    stretched when an operand of shape ``shape`` participated in an
    operation whose output produced ``grad``.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        # Sum over leading axes that were added by broadcasting.
        grad = grad.sum(axis=tuple(range(extra)))
    elif extra < 0:
        # The gradient's rank already dropped below the operand's — only
        # possible when every missing axis has size 1 (e.g. a ``(1,)``
        # operand in a scalar-output chain).  Right-align by re-inserting
        # the missing leading axes; without this the stretched-axis scan
        # below indexes past ``grad.shape`` and mis-reduces.
        grad = grad.reshape((1,) * -extra + grad.shape)
    # Sum over axes that were stretched from size 1.
    stretched = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autograd support.

    Parameters
    ----------
    data:
        Array data; converted to ``float64`` (``engine.DTYPE``).
    requires_grad:
        Whether gradients should flow into this tensor.  Leaf tensors
        with ``requires_grad=True`` accumulate into :attr:`grad`.
    parents:
        Tensors this value was computed from (internal; set by
        :func:`_apply_op`, which also records the registry op name).
    name:
        Optional debugging label.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents",
                 "name", "_op", "_meta", "_saved", "_seq")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=engine.DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._parents: tuple = tuple(parents) if self.requires_grad else ()
        self.name = name
        self._op: Optional[str] = None
        self._meta: Optional[dict] = None
        self._saved: object = None
        self._seq = next(_SEQ)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions of the underlying array."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def T(self) -> "Tensor":
        """Transpose of the last two axes (matrix transpose)."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the raw array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value of a 1-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient buffer."""
        self.grad = None

    # ------------------------------------------------------------------
    # autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        grad = unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def _parent_grads(self, grad: np.ndarray):
        """Run this node's registry-kernel VJP."""
        arrays = tuple(p.data for p in self._parents)
        return engine.KERNELS[self._op].vjp(self._meta, grad, arrays,
                                            self.data, self._saved)

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ones (required to be a scalar
            tensor in that case, mirroring torch semantics).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}")

        order = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if not node._parents:
                node._accumulate(node_grad)
                continue
            if node._op is None:
                continue
            parent_grads = node._parent_grads(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                pgrad = unbroadcast(np.asarray(pgrad, dtype=parent.data.dtype), parent.data.shape)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        return add(self, as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return add(self, as_tensor(other) * -1.0)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return add(as_tensor(other), self * -1.0)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return mul(self, as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return div(self, as_tensor(other))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return div(as_tensor(other), self)

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        return power(self, float(exponent))

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return matmul(self, as_tensor(other))

    def __getitem__(self, index) -> "Tensor":
        return getitem(self, index)

    # ------------------------------------------------------------------
    # shape ops (thin wrappers; implementations below)
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """Return a reshaped view with gradient support."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        """Permute axes (default: swap the last two)."""
        return transpose(self, axes)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` with gradient support."""
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` with gradient support."""
        return tensor_mean(self, axis=axis, keepdims=keepdims)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _topological_order(root: Tensor) -> list:
    """Return tensors reachable from ``root``, root first.

    Creation order is a topological order by construction (parents exist
    before children), so the schedule is simply the ancestor set sorted
    by decreasing creation index — the same order the planned executor
    replays, which keeps eager and planned gradient accumulation
    bit-for-bit identical.
    """
    found: set = set()
    order: list = []
    stack: list = [root]
    while stack:
        node = stack.pop()
        if id(node) in found:
            continue
        found.add(id(node))
        order.append(node)
        stack.extend(node._parents)
    order.sort(key=lambda t: t._seq, reverse=True)
    return order


def _apply_op(op: str, inputs: tuple, meta: Optional[dict] = None) -> Tensor:
    """Dispatch one primitive through the engine's kernel registry.

    Runs the kernel's forward and, when recording, creates the output
    node (a trace finds it later by its ``_seq``).
    """
    out_data, saved = engine.KERNELS[op].forward(
        meta, tuple(t.data for t in inputs))
    if not (is_grad_enabled() and any(t.requires_grad for t in inputs)):
        return Tensor(out_data)
    result = Tensor(out_data, requires_grad=True, parents=inputs)
    result._op = op
    result._meta = meta
    result._saved = saved
    return result


# ----------------------------------------------------------------------
# primitive ops
# ----------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (broadcasting) addition."""
    return _apply_op("add", (a, b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (broadcasting) multiplication."""
    return _apply_op("mul", (a, b),
                     {"needs": (a.requires_grad, b.requires_grad)})


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (broadcasting) division."""
    return _apply_op("div", (a, b),
                     {"needs": (a.requires_grad, b.requires_grad)})


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    return _apply_op("power", (a,), {"exponent": float(exponent)})


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product following numpy ``@`` semantics (incl. batched)."""
    return _apply_op("matmul", (a, b))


def reshape(a: Tensor, shape: tuple) -> Tensor:
    """Reshape with gradient support."""
    return _apply_op("reshape", (a,),
                     {"shape": shape, "old_shape": a.data.shape})


def transpose(a: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Permute axes; ``None`` swaps the last two axes."""
    if axes is None:
        if a.data.ndim < 2:
            return a
        axes = list(range(a.data.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
    axes = tuple(axes)
    inverse = tuple(int(i) for i in np.argsort(axes))
    return _apply_op("transpose", (a,), {"axes": axes, "inverse": inverse})


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum reduction with gradient support."""
    return _apply_op(
        "sum", (a,),
        {"axis": axis, "keepdims": keepdims, "in_shape": a.data.shape},
    )


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean reduction with gradient support."""
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.data.shape[ax]
    return tensor_sum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def getitem(a: Tensor, index) -> Tensor:
    """Indexing / slicing with gradient support (scatter-add backward)."""
    return _apply_op("getitem", (a,),
                     {"index": index, "in_shape": a.data.shape})
