"""The kernel registry and the mode switch its kernels read.

:data:`KERNELS` maps an op name to its :class:`OpKernel`; the family
modules beside this file fill it at import through
:func:`register_kernel`.  The ``"fused"`` / ``"eager"`` mode lives here,
*below* the kernels, because some VJPs consult it
(:func:`fused_enabled`) and :func:`select_kernel` resolves it;
:mod:`repro.nn.engine` re-exports everything public.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

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


#: Conservative default for :attr:`OpKernel.vjp_uses` — assume the VJP
#: reads everything, so unannotated kernels never get a buffer reused
#: out from under their backward.
DEFAULT_VJP_USES = ("inputs", "output", "saved")


class OpKernel:
    """A named forward/VJP pair, optionally with a reference variant.

    ``forward(meta, arrays, out=None) -> (out, saved)`` computes the op
    on raw numpy arrays; ``saved`` is opaque data reused by the VJP.
    It is the *only* optimized forward: the eager dispatcher calls it
    without ``out`` (numpy allocates), the planned replay passes the
    arena buffer the memory plan assigned — one ufunc sequence, so
    eager and planned bits are equal by construction.  ``out`` is the
    kernel's own buffer (fresh or arena): it may be overwritten freely,
    the input ``arrays`` never.
    ``vjp(meta, grad, arrays, out, saved) -> tuple`` returns one
    gradient (or ``None``) per input array; the caller unbroadcasts.
    ``ref_forward(meta, arrays)`` / ``ref_vjp`` preserve the pre-engine
    float association bit-for-bit and are used in ``"eager"`` mode.

    ``arena`` says the forward *writes its result into* ``out`` and
    returns that buffer, so the planner may assign the step an arena
    buffer.  Kernels that cannot (``a ** e`` scalar fast paths,
    ``np.where``/``bincount`` results, views) leave it ``False``,
    accept ``out`` and ignore it; an arena kernel may still return a
    fresh array for recorded shapes with no stable ``out=`` form (the
    vector operands of ``matmul``/``linear*``).

    ``vjp_uses`` declares which forward-time arrays the VJP actually
    reads — any subset of ``("inputs", "output", "saved")`` — and is
    the liveness contract :func:`repro.nn.passes.plan_memory` relies on
    to recycle buffers before backward.  A kernel whose VJP only looks
    at ``meta``/``grad`` (or array *shapes* via ``meta``) declares
    ``()``; reading ``len(arrays)`` or ``arrays[i].shape`` alone does
    not count as a use.
    """

    __slots__ = ("name", "forward", "vjp", "ref_forward", "ref_vjp",
                 "arena", "vjp_uses")

    def __init__(self, name: str, forward: Callable, vjp: Callable,
                 ref_forward: Optional[Callable] = None,
                 ref_vjp: Optional[Callable] = None,
                 arena: bool = False,
                 vjp_uses: Tuple[str, ...] = DEFAULT_VJP_USES) -> None:
        self.name = name
        self.forward = forward
        self.vjp = vjp
        self.ref_forward = ref_forward or forward
        self.ref_vjp = ref_vjp or vjp
        self.arena = arena
        self.vjp_uses = tuple(vjp_uses)


KERNELS: Dict[str, OpKernel] = {}


def register_kernel(name: str, forward: Callable, vjp: Callable,
                    ref_forward: Optional[Callable] = None,
                    ref_vjp: Optional[Callable] = None,
                    arena: bool = False,
                    vjp_uses: Tuple[str, ...] = DEFAULT_VJP_USES) -> OpKernel:
    """Add an :class:`OpKernel` to the registry (recipe: "Adding a
    fused kernel" in ``docs/ARCHITECTURE.md``).

    Raises :class:`ValueError` for a name already registered (family
    files fill one table; a silent replacement would swap numerics
    under every plan) and for ``vjp_uses`` tokens outside
    :data:`DEFAULT_VJP_USES` (a typo would read as "the VJP uses
    nothing" and let liveness recycle a buffer backward still reads).
    """
    if name in KERNELS:
        raise ValueError(f"kernel {name!r} is already registered")
    unknown = sorted(set(vjp_uses) - set(DEFAULT_VJP_USES))
    if unknown:
        raise ValueError(
            f"kernel {name!r}: unknown vjp_uses {unknown}; "
            f"use a subset of {DEFAULT_VJP_USES}"
        )
    kernel = OpKernel(name, forward, vjp, ref_forward, ref_vjp,
                      arena, vjp_uses)
    KERNELS[name] = kernel
    return kernel


def select_kernel(name: str) -> Tuple[Callable, Callable]:
    """Resolve the (forward, vjp) pair for the current mode."""
    kernel = KERNELS[name]
    if fused_enabled():
        return kernel.forward, kernel.vjp
    return kernel.ref_forward, kernel.ref_vjp
