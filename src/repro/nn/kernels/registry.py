"""The kernel registry: one :class:`OpKernel` per op name.

:data:`KERNELS` maps an op name to its kernel; the family modules beside
this file fill it at import through :func:`register_kernel`, and
:mod:`repro.nn.engine` re-exports everything public.  There is one
kernel per op and no mode to select another: a fused op is a kernel a
layer calls through its :mod:`repro.nn.functional` entry point.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple


#: Conservative default for :attr:`OpKernel.vjp_uses` — assume the VJP
#: reads everything, so unannotated kernels never get a buffer reused
#: out from under their backward.
DEFAULT_VJP_USES = ("inputs", "output", "saved")


class OpKernel:
    """A named forward/VJP pair.

    ``forward(meta, arrays, out=None) -> (out, saved)`` computes the op
    on raw numpy arrays; ``saved`` is opaque data reused by the VJP.
    It is the op's *only* forward: the eager dispatcher calls it
    without ``out`` (numpy allocates), the planned replay passes the
    arena buffer the memory plan assigned — one ufunc sequence, so
    eager and planned bits are equal by construction.  ``out`` is the
    kernel's own buffer (fresh or arena): it may be overwritten freely,
    the input ``arrays`` never.
    ``vjp(meta, grad, arrays, out, saved) -> tuple`` returns one
    gradient (or ``None``) per input array; the caller unbroadcasts.

    ``arena`` says the forward *writes its result into* ``out`` and
    returns that buffer, so the planner may assign the step an arena
    buffer.  Kernels that cannot (``a ** e`` scalar fast paths,
    ``np.where``/``bincount`` results, views) leave it ``False``,
    accept ``out`` and ignore it.

    ``vjp_uses`` declares which forward-time arrays the VJP actually
    reads — any subset of ``("inputs", "output", "saved")`` — and is
    the liveness contract :func:`repro.nn.passes.plan_memory` relies on
    to recycle buffers before backward.  A kernel whose VJP only looks
    at ``meta``/``grad`` (or array *shapes* via ``meta``) declares
    ``()``; reading ``len(arrays)`` or ``arrays[i].shape`` alone does
    not count as a use.

    ``bind(meta, in_shapes, out_shape, backward)``, when given, is
    called once per plan step as an :class:`~repro.nn.engine.ExecutionPlan`
    is bound — never on eager dispatch — so a kernel can build the
    plan-static constants its replays read into ``meta`` outside the
    timed replay (``backward`` says whether the step's VJP will run).
    """

    __slots__ = ("name", "forward", "vjp", "arena", "vjp_uses", "bind")

    def __init__(self, name: str, forward: Callable, vjp: Callable,
                 arena: bool = False,
                 vjp_uses: Tuple[str, ...] = DEFAULT_VJP_USES,
                 bind: Optional[Callable] = None) -> None:
        self.name = name
        self.forward = forward
        self.vjp = vjp
        self.arena = arena
        self.vjp_uses = tuple(vjp_uses)
        self.bind = bind


KERNELS: Dict[str, OpKernel] = {}


def register_kernel(name: str, forward: Callable, vjp: Callable,
                    arena: bool = False,
                    vjp_uses: Tuple[str, ...] = DEFAULT_VJP_USES,
                    bind: Optional[Callable] = None) -> OpKernel:
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
    kernel = OpKernel(name, forward, vjp, arena, vjp_uses, bind)
    KERNELS[name] = kernel
    return kernel

