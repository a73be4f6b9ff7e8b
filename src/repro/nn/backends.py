"""Execution backends: registered dtype policies with accuracy budgets.

The plan compiler in :mod:`repro.nn.engine` lowers a traced graph
through the pass pipeline (:mod:`repro.nn.passes`) into a schedule; the
*backend* active at that moment decides the precision it runs in.  An
:class:`ExecutionBackend` is a named **dtype policy** — the precision
leaf tensors are created in and kernels therefore compute in — plus the
**accuracy budget** that precision is held to against ``float64``.
Kernels derive their working dtype from their input arrays, never from
a hard-coded ``np.float64`` (the tier-1 dtype lint in
``tests/test_docs.py`` enforces that), which is what lets the engine's
one dtype-generic :data:`~repro.nn.engine.KERNELS` registry and one
arena executor serve every registered precision.

Two backends are registered:

``float64``
    The default.  Trainers (:class:`~repro.training.trainer.Trainer`,
    ``ParallelTrainer``, ``OnlineAdapter``) always run under it, and the
    engine's equivalence gate — planned replay bitwise-identical to the
    fused eager walk — is stated against it.

``float32``
    The serving backend: half the memory traffic and measurably faster
    GEMMs for inference forwards, selected per gateway through
    ``GatewayConfig(precision="float32")``.  Its accuracy budget —
    :data:`FLOAT32_ACCURACY_BUDGET`, the maximum relative forecast
    deviation vs the float64 path — is gated in
    ``benchmarks/test_engine_speedup.py`` (``BENCH_engine.json``).

Example::

    from repro.nn import engine

    with engine.use_backend("float32"):
        serving_model = build_model()          # float32 parameters
        forecast = serving_model(batch, graph) # float32 forward

Backends nest like any context manager and restore the previous backend
on exit; :func:`active_backend` / :func:`active_dtype` read the current
selection.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = [
    "ExecutionBackend",
    "BACKENDS",
    "FLOAT32_ACCURACY_BUDGET",
    "register_backend",
    "get_backend",
    "active_backend",
    "active_dtype",
    "use_backend",
]


#: Documented accuracy budget of the ``float32`` serving backend: the
#: maximum *relative* deviation of a float32 forecast from its float64
#: twin, ``max |f32 - f64| / (|f64| + 1)``.  Single precision carries
#: ~1e-7 relative error per operation; Gaia's deepest forward chains a
#: few hundred kernels, so the budget leaves two orders of magnitude of
#: headroom.  Enforced in ``benchmarks/test_engine_speedup.py``.
FLOAT32_ACCURACY_BUDGET = 5e-4


class ExecutionBackend:
    """One execution backend: a dtype policy with an accuracy budget.

    Parameters
    ----------
    name:
        Registry key (``"float64"``, ``"float32"``).
    dtype:
        The numpy dtype leaf tensors are created in under this backend.
    accuracy_budget:
        Documented maximum relative deviation vs the ``float64``
        reference (``0.0`` for the reference itself).
    """

    __slots__ = ("name", "dtype", "accuracy_budget")

    def __init__(self, name: str, dtype,
                 accuracy_budget: float = 0.0) -> None:
        self.name = name
        self.dtype = np.dtype(dtype)
        self.accuracy_budget = float(accuracy_budget)

    def __repr__(self) -> str:
        return (f"ExecutionBackend(name={self.name!r}, "
                f"dtype={self.dtype.name})")


#: Registry of available backends, keyed by name.
BACKENDS: Dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Add a backend to :data:`BACKENDS` (last registration wins)."""
    BACKENDS[backend.name] = backend
    return backend


register_backend(ExecutionBackend("float64", np.float64))
register_backend(ExecutionBackend(
    "float32", np.float32, accuracy_budget=FLOAT32_ACCURACY_BUDGET,
))

# The active backend, held in a one-slot list so context managers can
# swap it without rebinding module globals.  Default: float64.
_ACTIVE = [BACKENDS["float64"]]


def get_backend(name: str) -> ExecutionBackend:
    """Look up a registered backend by name."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; "
            f"registered: {sorted(BACKENDS)}"
        ) from None


def active_backend() -> ExecutionBackend:
    """The backend new leaf tensors and compiled plans bind to."""
    return _ACTIVE[0]


def active_dtype() -> np.dtype:
    """Dtype policy of the active backend (leaf-tensor creation dtype)."""
    return _ACTIVE[0].dtype


class use_backend:
    """Context manager pinning the active backend for a block.

    Accepts a backend name or an :class:`ExecutionBackend` instance;
    restores the previous backend on exit (reentrant)::

        with use_backend("float32"):
            model = build_model()    # float32 parameters
    """

    def __init__(self, backend) -> None:
        if isinstance(backend, str):
            backend = get_backend(backend)
        if not isinstance(backend, ExecutionBackend):
            raise TypeError(
                f"expected a backend name or ExecutionBackend, "
                f"got {type(backend).__name__}"
            )
        self._backend = backend

    def __enter__(self) -> ExecutionBackend:
        self._prev = _ACTIVE[0]
        _ACTIVE[0] = self._backend
        return self._backend

    def __exit__(self, *exc_info: object) -> None:
        _ACTIVE[0] = self._prev
